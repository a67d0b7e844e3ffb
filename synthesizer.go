package bistpath

import (
	"context"
	"errors"
	"sync"

	"bistpath/internal/bist"
	"bistpath/internal/dfg"
	"bistpath/internal/regassign"
)

// ErrSynthesizerClosed is returned by a Synthesizer whose Close has been
// called. Runs in flight when Close fires are cancelled and also fail
// with this error (unless the caller's own context was already done, in
// which case that context's error wins).
var ErrSynthesizerClosed = errors.New("bistpath: synthesizer closed")

// synthScratch bundles the reusable memory one synthesis run threads
// through the pipeline: the register binder's bitset graphs and the BIST
// optimizer's search-node arenas. A scratch serves one run at a time;
// the Synthesizer's freelist hands each concurrent run its own.
type synthScratch struct {
	bind *regassign.Scratch
	bist *bist.Scratch
}

func newSynthScratch() *synthScratch {
	return &synthScratch{bind: regassign.NewScratch(), bist: bist.NewScratch()}
}

// Synthesizer is a reusable synthesis handle: it owns the scratch arenas
// the pipeline's hot phases allocate from and the cache handle applied
// to runs that bring none of their own. Reusing one handle across runs
// makes the steady-state pipeline essentially allocation-free — the
// first run warms the arenas, subsequent runs recycle them — while
// keeping every Result byte-identical to a fresh-handle run (the
// determinism tests assert exactly this).
//
// A Synthesizer is safe for concurrent use: concurrent runs draw
// distinct scratches from the freelist. DFG.SynthesizeCtx runs on a
// package-default handle, so ordinary callers get arena reuse without
// managing one; create an explicit handle to control the default
// Config, share a Cache, run batches (SynthesizeAll, RunJob), open
// incremental Sessions, or bound the handle's lifetime with Close.
type Synthesizer struct {
	cfg Config

	// baseCtx is the handle's lifetime. Close cancels every in-flight
	// run's context first and baseCtx last, so observing baseCtx done
	// implies the runs have already been told to stop.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	free     []*synthScratch
	inflight map[int64]context.CancelFunc
	nextID   int64
	wg       sync.WaitGroup
}

// New creates a Synthesizer. cfg is the handle's default configuration:
// Synthesize uses it directly, and batch jobs without a Config.Cache of
// their own inherit cfg.Cache. Call Close when done to cancel in-flight
// runs and release the handle.
func New(cfg Config) *Synthesizer {
	ctx, cancel := context.WithCancel(context.Background())
	return &Synthesizer{
		cfg:      cfg,
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: make(map[int64]context.CancelFunc),
	}
}

// Config returns the handle's default configuration.
func (s *Synthesizer) Config() Config { return s.cfg }

// Close cancels every run in flight, waits for them to unwind, and
// marks the handle closed: subsequent runs fail with
// ErrSynthesizerClosed. Close is idempotent; second and later calls
// return nil immediately.
func (s *Synthesizer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.inflight))
	for _, c := range s.inflight {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.cancel()
	s.wg.Wait()
	return nil
}

// Synthesize runs the full pipeline on one design with the handle's
// configuration. opToModule maps operation names to module names (nil =
// automatic area-driven module binding), exactly as in DFG.SynthesizeCtx.
func (s *Synthesizer) Synthesize(ctx context.Context, d *DFG, opToModule map[string]string) (*Result, error) {
	if d == nil {
		return nil, ErrNoDFG
	}
	return s.run(ctx, d.g, opToModule, s.cfg)
}

// SynthesizePareto is Synthesize under the ParetoFront objective: the
// Result carries the non-dominated plan set in Result.Pareto, with the
// area-minimal front member reported as the primary plan.
func (s *Synthesizer) SynthesizePareto(ctx context.Context, d *DFG, opToModule map[string]string) (*Result, error) {
	if d == nil {
		return nil, ErrNoDFG
	}
	cfg := s.cfg
	cfg.Objective = ParetoFront
	return s.run(ctx, d.g, opToModule, cfg)
}

// run is the front door every synthesis passes through: DFG.SynthesizeCtx,
// Synthesize, SynthesizePareto and RunJob (hence SynthesizeAll). It
// normalizes cfg, runs the step-0 precheck and module binding, and then,
// under the handle's lifetime, serves the request from cfg.Cache when
// cachePolicy allows or runs the pipeline directly.
func (s *Synthesizer) run(ctx context.Context, g *dfg.Graph, opToModule map[string]string, cfg Config) (*Result, error) {
	cfg = normalizeConfig(cfg)
	mb, err := bindModules(g, opToModule)
	if err != nil {
		return nil, err
	}
	return s.runWith(ctx, func(ctx context.Context, sc *synthScratch) (*Result, error) {
		if cfg.Cache != nil && cachePolicy(cfg) {
			return cfg.Cache.synthesize(ctx, g, mb, cfg, sc)
		}
		return synthesizePipeline(ctx, g, mb, cfg, pipeExtras{sc: sc})
	})
}

// runWith executes one synthesis under the handle's lifetime: it
// registers the run's cancel so Close can abort it at its next context
// poll and wait for it to unwind, loans do a scratch, and maps an abort
// by Close to ErrSynthesizerClosed. Session.Resynthesize uses it to call
// synthesizePipeline with its reuse/capture attachments while still
// honoring Close.
func (s *Synthesizer) runWith(ctx context.Context, do func(context.Context, *synthScratch) (*Result, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	caller := ctx
	ctx, cancel := context.WithCancel(ctx)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrSynthesizerClosed
	}
	s.wg.Add(1)
	id := s.nextID
	s.nextID++
	s.inflight[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
		cancel()
		s.wg.Done()
	}()

	sc := s.getScratch()
	res, err := do(ctx, sc)
	s.putScratch(sc)
	if err != nil && isContextError(err) && caller.Err() == nil {
		// The run was aborted by Close, not by the caller: report the
		// closure rather than a bare context error. closed is set before
		// Close cancels anything, so this read cannot race ahead of the
		// cancellation that aborted us.
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, ErrSynthesizerClosed
		}
	}
	return res, err
}

func (s *Synthesizer) getScratch() *synthScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sc := s.free[n-1]
		s.free = s.free[:n-1]
		return sc
	}
	return newSynthScratch()
}

func (s *Synthesizer) putScratch(sc *synthScratch) {
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// defaultSynthesizer backs DFG.SynthesizeCtx, so handle-free callers
// amortize pipeline allocations across runs too. It is never closed.
var defaultSynthesizer = New(DefaultConfig())
