package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"bistpath"
)

// closedLoop runs ops back to back, one client, until d has passed and,
// when atEnd is set, until atEnd reports a boundary. before runs ahead of
// each op, outside its timing; step runs one op under the root span and
// returns the op's expectation key and output.
func closedLoop(d time.Duration, tr *tracer, ck *checker, h *canonHasher, win *window,
	before func(), atEnd func() bool, step func(op, root int32) (int32, []byte, error)) {
	start := time.Now()
	deadline := start.Add(d)
	for i := int32(0); ; i++ {
		if before != nil {
			before()
		}
		t0 := time.Now()
		if !t0.Before(deadline) && (atEnd == nil || atEnd()) {
			break
		}
		root := tr.begin(layerOp, i, -1)
		key, doc, err := step(i, root)
		tr.end(root)
		rec := opRecord{at: int64(t0.Sub(start)), lat: int64(time.Since(t0)), key: key}
		if err != nil {
			rec.failed = true
			win.fail(err)
		} else {
			rec.hash = h.sum(ck.mode(key), doc)
		}
		win.ops = append(win.ops, rec)
	}
	win.elapsed = time.Since(start)
	win.rss = peakRSSMB()
	if tr != nil {
		win.spans = tr.spans
	}
}

// opTrace is the span context a phase observer attaches phase spans to.
type opTrace struct {
	op, parent int32
}

func (o *opTrace) observer(tr *tracer) bistpath.Observer {
	if tr == nil {
		return nil
	}
	return tr.phaseObserver(&o.op, &o.parent)
}

// parseSpan parses a design's text under a dfg.parse span.
func parseSpan(tr *tracer, d *design, op, root int32) (*bistpath.DFG, error) {
	s := tr.begin(layerParse, op, root)
	defer tr.end(s)
	return d.parse()
}

// synthSpan runs synth under a span named by how the cache served it,
// with phase spans nested through cur.
func synthSpan(tr *tracer, cur *opTrace, op, root int32, synth func() (*bistpath.Result, error)) (*bistpath.Result, error) {
	s := tr.begin(layerMiss, op, root)
	cur.op, cur.parent = op, s
	res, err := synth()
	tr.end(s)
	if err == nil && res.Stats.CacheHit && s >= 0 {
		tr.spans[s].name = layerHit
	}
	return res, err
}

// encodeSpan renders the Result JSON under a resultjson.encode span.
func encodeSpan(tr *tracer, res *bistpath.Result, op, root int32) ([]byte, error) {
	s := tr.begin(layerEncode, op, root)
	defer tr.end(s)
	return res.JSON()
}

// ---- cold-synth ----------------------------------------------------------

// cold-synth's pool: coldPoolSize distinct designs, of which coldPresetM
// are preset-m instances and the rest RandomDesign sweep shapes and
// preset-s designs drawn from the seed. One pass over the pool takes two
// to four seconds; each pass runs against a fresh cache, so the cache
// only ever sees distinct designs. The preset-m instances are a fixed set
// (seeds 1..coldPresetM): their exact-search cost is heavy-tailed (a few
// take over 100 ms) and they carry most of a pass's time, so drawing them
// from the seed would make throughput a property of the seed. The pool
// is as large as it is for bist_overhead_pct: the drawn designs' overhead
// varies widely (a standard deviation of about 10 points on sweep
// shapes), and with half as many the mean moved by up to 2.5% of itself
// from seed to seed.
const (
	coldPoolSize = 4096
	coldPresetM  = 204
)

type coldSynth struct {
	e     *env
	ck    *checker
	pool  []*design
	keys  []int32
	order []int
	pos   int
	cfg   bistpath.Config
	cache *bistpath.Cache
	synth *bistpath.Synthesizer
	past  bistpath.CacheStats // counters of the caches of finished passes
	cur   opTrace
}

func setupColdSynth(ctx context.Context, e *env) (workload, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	pool, err := fixedPool("m", coldPresetM, "cold-m", seen)
	if err != nil {
		return nil, err
	}
	drawn, err := drawPool(rng, coldPoolSize-len(pool), []share{{"sweep", 2}, {"s", 1}}, "cold", seen)
	if err != nil {
		return nil, err
	}
	pool = append(pool, drawn...)
	cfg := bistpath.DefaultConfig()
	cfg.Workers = 1
	w := &coldSynth{e: e, ck: newChecker(), pool: pool, cfg: cfg, order: rng.Perm(len(pool))}
	for _, d := range pool {
		w.keys = append(w.keys, w.ck.key(w.ck.addTarget(&target{d: d, cfg: cfg}), canonNoTimes))
	}
	return w, nil
}

// handle (re)creates the synthesizer on the current cache; a new pass
// first swaps in a fresh cache.
func (w *coldSynth) handle(newPass bool, obs bistpath.Observer) {
	if w.synth != nil {
		w.synth.Close()
	}
	if newPass || w.cache == nil {
		if w.cache != nil {
			w.past = addCacheStats(w.past, w.cache.Stats())
		}
		w.cache, _ = bistpath.NewCache(bistpath.CacheOptions{}) // memory-only: cannot fail
	}
	cfg := w.cfg
	cfg.Cache = w.cache
	cfg.Observer = obs
	w.synth = bistpath.New(cfg)
}

func (w *coldSynth) stats() bistpath.CacheStats {
	if w.cache == nil {
		return w.past
	}
	return addCacheStats(w.past, w.cache.Stats())
}

func (w *coldSynth) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	obs := w.cur.observer(tr)
	w.handle(false, obs)
	win := &window{}
	before := w.stats()
	h := newCanonHasher(w.e.hasher)
	closedLoop(d, tr, w.ck, h, win, func() {
		if w.pos > 0 && w.pos%len(w.pool) == 0 {
			w.handle(true, obs)
		}
	}, nil, func(op, root int32) (int32, []byte, error) {
		i := w.next()
		dsg, key := w.pool[i], w.keys[i]
		g, err := parseSpan(tr, dsg, op, root)
		if err != nil {
			return key, nil, err
		}
		res, err := synthSpan(tr, &w.cur, op, root, func() (*bistpath.Result, error) {
			return w.synth.Synthesize(ctx, g, dsg.mods)
		})
		if err != nil {
			return key, nil, err
		}
		doc, err := encodeSpan(tr, res, op, root)
		return key, doc, err
	})
	win.cache = subCacheStats(w.stats(), before)
	return win, nil
}

// next returns the pool index of the next op: every pass visits the pool
// in the same seeded order.
func (w *coldSynth) next() int {
	w.pos++
	return w.order[(w.pos-1)%len(w.pool)]
}

func (w *coldSynth) checker() *checker { return w.ck }

func (w *coldSynth) close() {
	if w.synth != nil {
		w.synth.Close()
	}
}

// ---- warm-repeat ---------------------------------------------------------

// warm-repeat's hot pool is a fixed set: the five paper benchmarks, then
// the first warmSweep RandomDesign sweep shapes and warmPresetS preset-s
// designs, in that popularity order. With Zipf-skewed repeats the few
// most popular designs take most ops, so a pool drawn from the seed would
// make throughput a property of which designs the seed put first. The
// sessions' designs and edits are a fixed choice too: they enter the
// bist_overhead_pct mean, which would otherwise move with the seed by
// more than its bound should allow. The seed draws the op sequence. The
// shares and the Zipf exponent are assumptions, not taken from a traffic
// record; perfbench/README.md gives the basis of each.
const (
	warmSweep     = 40
	warmPresetS   = 19
	warmSessions  = 8    // designs with an open incremental session
	warmZipfS     = 1.1  // Zipf exponent of the repeat distribution
	warmDiskShare = 0.10 // share of ops that are fresh-process disk hits
	warmEditShare = 0.05 // share of ops that are session edits
)

type warmSession struct {
	d       *design
	ed      *edit
	ss      *bistpath.Session
	forward bool     // direction of the next edit
	keys    [2]int32 // expectation after an edit back (0) or forward (1)
}

type warmRepeat struct {
	e        *env
	ck       *checker
	pool     []*design
	keys     []int32
	dir      string
	cfg      bistpath.Config
	cache    *bistpath.Cache
	hot      *bistpath.Synthesizer
	sessions []*warmSession
	rng      *rand.Rand
	zipf     *rand.Zipf
	disk     bistpath.CacheStats // counters of the per-op disk caches
	cur      opTrace
}

func setupWarmRepeat(ctx context.Context, e *env) (workload, error) {
	seen := map[string]bool{}
	pool := paperDesigns()
	sweep, err := fixedPool("sweep", warmSweep, "hot-sweep", seen)
	if err != nil {
		return nil, err
	}
	presetS, err := fixedPool("s", warmPresetS, "hot-s", seen)
	if err != nil {
		return nil, err
	}
	pool = append(append(pool, sweep...), presetS...)

	dir, err := os.MkdirTemp(e.workdir, "warm-cache-")
	if err != nil {
		return nil, err
	}
	w := &warmRepeat{e: e, ck: newChecker(), pool: pool, dir: dir, rng: rand.New(rand.NewSource(1))}
	if w.cache, err = bistpath.NewCache(bistpath.CacheOptions{Dir: dir}); err != nil {
		w.close()
		return nil, err
	}
	w.cfg = bistpath.DefaultConfig()
	w.cfg.Workers = 1
	cfg := w.cfg
	cfg.Cache = w.cache
	fill := bistpath.New(cfg)
	defer fill.Close()
	for _, d := range pool {
		g, err := d.parse()
		if err != nil {
			w.close()
			return nil, err
		}
		res, err := fill.Synthesize(ctx, g, d.mods)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		t := &target{d: d, cfg: w.cfg}
		if t.cold, err = res.JSON(); err != nil {
			w.close()
			return nil, err
		}
		w.keys = append(w.keys, w.ck.key(w.ck.addTarget(t), canonRaw))
	}
	for _, i := range w.rng.Perm(len(pool)) {
		if len(w.sessions) == warmSessions {
			break
		}
		if ws := w.newSession(ctx, pool[i], i); ws != nil {
			w.sessions = append(w.sessions, ws)
		}
	}
	w.handle(nil)
	if err := w.openSessions(ctx, nil); err != nil {
		w.close()
		return nil, err
	}
	// The op sequence is what the seed draws.
	w.rng = rand.New(rand.NewSource(e.seed ^ 0x5eed))
	w.zipf = rand.NewZipf(w.rng, warmZipfS, 1, uint64(len(pool)-1))
	return w, nil
}

// newSession picks the first candidate edit of d (in w.rng's order) whose
// edited design synthesizes, and registers both states as targets.
func (w *warmRepeat) newSession(ctx context.Context, d *design, i int) *warmSession {
	eds := candidateEdits(d)
	w.rng.Shuffle(len(eds), func(a, b int) { eds[a], eds[b] = eds[b], eds[a] })
	for _, ed := range eds {
		ed2 := ed.edited(d)
		g, err := ed2.parse()
		if err != nil {
			continue
		}
		if _, err := g.SynthesizeCtx(ctx, ed2.mods, w.cfg); err != nil {
			continue
		}
		base := w.ck.expects[w.keys[i]].t
		return &warmSession{d: d, ed: ed, keys: [2]int32{
			w.ck.key(base, canonNoStats),
			w.ck.key(w.ck.addTarget(&target{d: ed2, cfg: w.cfg}), canonNoStats),
		}}
	}
	return nil
}

// openSessions (re)opens every session with the given observer and runs
// its first, full synthesis, so every window starts from the base design.
func (w *warmRepeat) openSessions(ctx context.Context, obs bistpath.Observer) error {
	for _, ws := range w.sessions {
		if ws.ss != nil {
			ws.ss.Close()
		}
		g, err := ws.d.parse()
		if err != nil {
			return err
		}
		cfg := w.cfg
		cfg.Observer = obs
		if ws.ss, err = w.hot.NewSessionConfig(g, ws.d.mods, cfg); err != nil {
			return err
		}
		if _, err := ws.ss.Resynthesize(ctx); err != nil {
			return err
		}
		ws.forward = true
	}
	return nil
}

func (w *warmRepeat) handle(obs bistpath.Observer) {
	if w.hot != nil {
		w.hot.Close()
	}
	cfg := w.cfg
	cfg.Cache = w.cache
	cfg.Observer = obs
	w.hot = bistpath.New(cfg)
}

func (w *warmRepeat) stats() bistpath.CacheStats { return addCacheStats(w.cache.Stats(), w.disk) }

func (w *warmRepeat) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	obs := w.cur.observer(tr)
	w.handle(obs)
	if err := w.openSessions(ctx, obs); err != nil {
		return nil, err
	}
	win := &window{}
	before := w.stats()
	h := newCanonHasher(w.e.hasher)
	closedLoop(d, tr, w.ck, h, win, nil, nil, func(op, root int32) (int32, []byte, error) {
		kind, i := w.next()
		switch kind {
		case 's':
			return w.sessionOp(ctx, tr, w.sessions[i], win, op, root)
		case 'd':
			return w.diskOp(ctx, tr, i, obs, op, root)
		}
		dsg, key := w.pool[i], w.keys[i]
		g, err := parseSpan(tr, dsg, op, root)
		if err != nil {
			return key, nil, err
		}
		res, err := synthSpan(tr, &w.cur, op, root, func() (*bistpath.Result, error) {
			return w.hot.Synthesize(ctx, g, dsg.mods)
		})
		if err != nil {
			return key, nil, err
		}
		doc, err := encodeSpan(tr, res, op, root)
		return key, doc, err
	})
	win.cache = subCacheStats(w.stats(), before)
	return win, nil
}

// next draws the next op of the seeded sequence: a session edit ('s',
// session index), a disk hit ('d') or a memory hit ('m') on a
// Zipf-distributed pool index.
func (w *warmRepeat) next() (byte, int) {
	u := w.rng.Float64()
	switch {
	case u < warmEditShare && len(w.sessions) > 0:
		return 's', w.rng.Intn(len(w.sessions))
	case u < warmEditShare+warmDiskShare:
		return 'd', int(w.zipf.Uint64())
	}
	return 'm', int(w.zipf.Uint64())
}

// diskOp is what a fresh `bistpath synth -cache-dir` process does: open
// the cache directory, look the design up once, print the JSON.
func (w *warmRepeat) diskOp(ctx context.Context, tr *tracer, i int, obs bistpath.Observer, op, root int32) (int32, []byte, error) {
	dsg, key := w.pool[i], w.keys[i]
	g, err := parseSpan(tr, dsg, op, root)
	if err != nil {
		return key, nil, err
	}
	s := tr.begin(layerDiskHit, op, root)
	w.cur.op, w.cur.parent = op, s
	c, err := bistpath.NewCache(bistpath.CacheOptions{Dir: w.dir})
	if err != nil {
		tr.end(s)
		return key, nil, err
	}
	cfg := w.cfg
	cfg.Cache = c
	cfg.Observer = obs
	synth := bistpath.New(cfg)
	res, err := synth.Synthesize(ctx, g, dsg.mods)
	synth.Close()
	tr.end(s)
	w.disk = addCacheStats(w.disk, c.Stats())
	if err != nil {
		return key, nil, err
	}
	doc, err := encodeSpan(tr, res, op, root)
	return key, doc, err
}

// sessionOp applies the session's edit (or its undo) and re-synthesizes.
func (w *warmRepeat) sessionOp(ctx context.Context, tr *tracer, ws *warmSession, win *window, op, root int32) (int32, []byte, error) {
	key := ws.keys[0]
	if ws.forward {
		key = ws.keys[1]
	}
	s := tr.begin(layerResynth, op, root)
	w.cur.op, w.cur.parent = op, s
	err := ws.ed.apply(ws.ss, ws.forward)
	var res *bistpath.Result
	if err == nil {
		res, err = ws.ss.Resynthesize(ctx)
	}
	tr.end(s)
	if err != nil {
		return key, nil, err
	}
	ws.forward = !ws.forward
	win.sessions++
	win.reused += len(res.Stats.ReusedPhases)
	doc, err := encodeSpan(tr, res, op, root)
	return key, doc, err
}

func (w *warmRepeat) checker() *checker { return w.ck }

func (w *warmRepeat) close() {
	for _, ws := range w.sessions {
		if ws.ss != nil {
			ws.ss.Close()
		}
	}
	if w.hot != nil {
		w.hot.Close()
	}
	os.RemoveAll(w.dir)
}

// ---- explore -------------------------------------------------------------

// explore's deck is a fixed set: the paper benchmarks plus the first
// RandomDesign sweep and preset-s instances under Pareto synthesis, and
// the first preset-l and preset-m instances under the stochastic search.
// The cost of both is heavy-tailed (one Pareto space or one preset-l
// search can cost seconds, most cost a millisecond), so a deck drawn from
// the seed would make throughput and even the median a property of the
// seed. The seed sets the op order and the stochastic search's Seed. A
// window always ends on a pass boundary, so every deck item counts the
// same number of times.
const (
	exploreSweep       = 30 // Pareto: sweep seeds 1..exploreSweep
	explorePresetS     = 4  // Pareto: preset-s seeds 1..explorePresetS
	exploreStochL      = 2  // stochastic: preset-l seeds 1..exploreStochL
	exploreStochM      = 6  // stochastic: preset-m seeds 1..exploreStochM
	exploreGenerations = 20
)

type exploreItem struct {
	d     *design
	stoch bool
	key   int32
}

type explore struct {
	e       *env
	ck      *checker
	deck    []exploreItem
	order   []int
	pos     int
	rng     *rand.Rand
	pcfg    bistpath.Config
	scfg    bistpath.Config
	pareto  *bistpath.Synthesizer
	stochSy *bistpath.Synthesizer
	cur     opTrace
}

func setupExplore(ctx context.Context, e *env) (workload, error) {
	w := &explore{e: e, ck: newChecker(), rng: rand.New(rand.NewSource(e.seed))}
	w.pcfg = bistpath.DefaultConfig()
	w.pcfg.Workers = e.nproc
	w.scfg = w.pcfg
	w.scfg.Search = bistpath.SearchStochastic
	w.scfg.Seed = e.seed
	w.scfg.MaxGenerations = exploreGenerations

	add := func(d *design, stoch bool) {
		t := &target{d: d, pareto: !stoch, cfg: bistpath.DefaultConfig()}
		if stoch {
			t.cfg = w.scfg
		}
		w.deck = append(w.deck, exploreItem{d: d, stoch: stoch, key: w.ck.key(w.ck.addTarget(t), canonNoStats)})
	}
	for _, d := range paperDesigns() {
		add(d, false)
	}
	for _, part := range []struct {
		kind  string
		n     int
		stoch bool
	}{{"sweep", exploreSweep, false}, {"s", explorePresetS, false}, {"l", exploreStochL, true}, {"m", exploreStochM, true}} {
		for seed := int64(1); seed <= int64(part.n); seed++ {
			d, err := generate(part.kind, seed, fmt.Sprintf("%s%d", part.kind, seed))
			if err != nil {
				return nil, err
			}
			add(d, part.stoch)
		}
	}
	// Warm both handles' scratch arenas on the paper benchmarks.
	w.handles(nil)
	for _, it := range w.deck[:len(paperDesigns())] {
		g, err := it.d.parse()
		if err != nil {
			return nil, err
		}
		if _, err := w.pareto.SynthesizePareto(ctx, g, it.d.mods); err != nil {
			return nil, err
		}
		if _, err := w.stochSy.Synthesize(ctx, g, it.d.mods); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *explore) handles(obs bistpath.Observer) {
	if w.pareto != nil {
		w.pareto.Close()
		w.stochSy.Close()
	}
	p, s := w.pcfg, w.scfg
	p.Observer, s.Observer = obs, obs
	w.pareto, w.stochSy = bistpath.New(p), bistpath.New(s)
}

func (w *explore) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	w.handles(w.cur.observer(tr))
	win := &window{}
	h := newCanonHasher(w.e.hasher)
	closedLoop(d, tr, w.ck, h, win, nil, func() bool { return w.pos%len(w.deck) == 0 }, func(op, root int32) (int32, []byte, error) {
		it := w.deck[w.next()]
		g, err := parseSpan(tr, it.d, op, root)
		if err != nil {
			return it.key, nil, err
		}
		res, err := synthSpan(tr, &w.cur, op, root, func() (*bistpath.Result, error) {
			if it.stoch {
				return w.stochSy.Synthesize(ctx, g, it.d.mods)
			}
			return w.pareto.SynthesizePareto(ctx, g, it.d.mods)
		})
		if err != nil {
			return it.key, nil, err
		}
		doc, err := encodeSpan(tr, res, op, root)
		return it.key, doc, err
	})
	return win, nil
}

// next returns the deck index of the next op: each pass visits the whole
// deck in a fresh seeded order.
func (w *explore) next() int {
	if w.pos%len(w.deck) == 0 {
		w.order = w.rng.Perm(len(w.deck))
	}
	w.pos++
	return w.order[(w.pos-1)%len(w.deck)]
}

func (w *explore) checker() *checker { return w.ck }

func (w *explore) close() {
	if w.pareto != nil {
		w.pareto.Close()
		w.stochSy.Close()
	}
}
