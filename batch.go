package bistpath

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one synthesis request: an element of a SynthesizeAll batch, or
// the argument of RunJob.
type Job struct {
	// Name labels the job in its BatchResult; it defaults to the DFG
	// name. Distinct jobs may share a name (e.g. the same design at
	// several widths) — results are matched to jobs by position, never
	// by name.
	Name string
	// DFG is the scheduled data flow graph to synthesize. A nil DFG
	// fails that job with ErrNoDFG; the rest of the batch proceeds.
	// Synthesis treats the graph as read-only, so one DFG may safely
	// back several jobs of the same batch (e.g. a mode or width sweep).
	DFG *DFG
	// Modules maps op names to module names. A nil map selects
	// automatic area-driven module binding.
	Modules map[string]string
	// Config controls the run, exactly as in DFG.SynthesizeCtx.
	Config Config
}

// BatchOptions configures Synthesizer.SynthesizeAll.
type BatchOptions struct {
	// Workers bounds how many jobs are synthesized concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the batch
	// sequentially on the calling goroutine's pool worker.
	Workers int
	// Cache, when non-nil, is applied to every job whose Config.Cache is
	// nil, so a whole batch shares one result cache without editing each
	// Job. Duplicate jobs in the batch coalesce into a single synthesis
	// (the rest are served as cache hits). A job that sets its own
	// Config.Cache keeps it.
	Cache *Cache
}

// BatchResult is the outcome of one job. Exactly one of Result and Err
// is non-nil. Results are returned in job order regardless of worker
// count, and every field of Result except Stats is deterministic, so the
// batch's reports are byte-identical to a sequential run.
type BatchResult struct {
	Name   string
	Result *Result
	Err    error
	// Duration is the wall time the job spent on a pool worker (near
	// zero for jobs refused before starting, e.g. after cancellation).
	// Like Result.Stats it is timing-dependent and outside the
	// determinism contract.
	Duration time.Duration
}

// BatchStats summarizes how well SynthesizeAll kept its worker pool
// busy. All fields are timing-dependent.
type BatchStats struct {
	Workers int           // effective pool size after clamping
	Wall    time.Duration // batch wall time
	Busy    time.Duration // summed per-job durations across workers
}

// Utilization returns the fraction of the pool's capacity that was
// synthesizing, in (0, 1]: Busy / (Wall × Workers). A value well below 1
// on a saturated machine means the batch is limited by job granularity,
// not by the pool.
func (s BatchStats) Utilization() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// SynthesizeAll synthesizes every job on a bounded worker pool drawing
// scratch arenas from this handle and returns one BatchResult per job,
// in job order, plus pool-utilization accounting for the run. The
// context cancels the batch: jobs not yet started fail with ctx.Err(),
// and jobs already running abort at the next synthesis phase boundary
// (the BIST branch and bound polls the context). A panic inside one job
// is recovered and degrades that single job to an error instead of
// killing the batch (see RunJob).
func (s *Synthesizer) SynthesizeAll(ctx context.Context, jobs []Job, opts BatchOptions) ([]BatchResult, BatchStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results, BatchStats{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	start := time.Now()
	var busy atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				job := jobs[i]
				if job.Config.Cache == nil {
					job.Config.Cache = opts.Cache
				}
				results[i] = s.RunJob(ctx, job)
				busy.Add(int64(results[i].Duration))
			}
		}()
	}
	// Feed job indices until done or cancelled; on cancellation the
	// remaining unstarted jobs fail promptly with ctx.Err().
	cancelled := -1
feed:
	for i := range jobs {
		select {
		case <-ctx.Done():
			cancelled = i
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	if cancelled >= 0 {
		for i := cancelled; i < len(jobs); i++ {
			results[i] = BatchResult{Name: jobName(jobs[i]), Err: ctx.Err()}
		}
	}
	expBatchJobs.Add(int64(len(jobs)))
	return results, BatchStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(busy.Load()),
	}
}

// RunJob synthesizes one job on this handle, converting a panic into a
// per-job error so a single bad design cannot take down the whole batch
// (or a whole server). It is the per-job execution primitive under
// SynthesizeAll; use it directly when the caller manages its own
// concurrency, e.g. around a Pool slot. A job without a Config.Cache of
// its own inherits the handle's; a nil Job.DFG fails with ErrNoDFG.
//
// When a panic is recovered and the job has an Observer, the observer
// receives one final PanicRecovered event: without it a streaming
// subscriber (e.g. an SSE client of bistpathd) would wait forever for a
// conclusion that cannot come, because the panic unwound past the
// pipeline before any terminal phase event fired.
func (s *Synthesizer) RunJob(ctx context.Context, j Job) (br BatchResult) {
	if ctx == nil {
		ctx = context.Background()
	}
	br.Name = jobName(j)
	start := time.Now()
	defer func() {
		br.Duration = time.Since(start)
		if r := recover(); r != nil {
			br.Result = nil
			br.Err = fmt.Errorf("bistpath: job %q panicked: %v", br.Name, r)
			notifyPanicRecovered(j.Config.Observer, br.Name)
		}
	}()
	if err := ctx.Err(); err != nil {
		br.Err = err
		return br
	}
	if j.DFG == nil {
		br.Err = ErrNoDFG
		return br
	}
	cfg := j.Config
	if cfg.Cache == nil {
		cfg.Cache = s.cfg.Cache
	}
	br.Result, br.Err = s.run(ctx, j.DFG.g, j.Modules, cfg)
	return br
}

// Pool is a persistent, process-wide bound on concurrent synthesis: a
// set of slots that outlives any single batch. Where SynthesizeAll
// serves the one-shot "here are N jobs" shape, a Pool serves long-lived
// callers — most prominently the bistpathd service — that receive jobs
// over time and need every submission in the process to share one
// concurrency budget: Acquire a slot, run the job (Synthesizer.RunJob),
// Release. A Pool is safe for concurrent use.
type Pool struct {
	sem     chan struct{}
	workers int
}

// NewPool creates a pool with the given number of worker slots
// (0 or negative = runtime.GOMAXPROCS(0)).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers), workers: workers}
}

// Workers returns the pool's slot count.
func (p *Pool) Workers() int { return p.workers }

// Acquire blocks until a worker slot is free or ctx is done. On success
// the caller owns one slot and must Release it exactly once.
func (p *Pool) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (p *Pool) Release() { <-p.sem }

func jobName(j Job) string {
	if j.Name != "" {
		return j.Name
	}
	if j.DFG != nil {
		return j.DFG.Name()
	}
	return ""
}

// notifyPanicRecovered delivers the terminal PanicRecovered event to an
// observer after a job panic. The observer itself may be what panicked,
// so a second panic here is swallowed — the job's error is already set
// and there is nobody better to tell.
func notifyPanicRecovered(obs Observer, design string) {
	if obs == nil {
		return
	}
	defer func() { _ = recover() }()
	obs(Event{Design: design, Kind: PanicRecovered})
}
