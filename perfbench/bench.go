package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"time"

	"bistpath"
)

// opRecord is one op of a measured window.
type opRecord struct {
	at     int64  // ns from the window's start to the op's start (open loop: when it was due)
	lat    int64  // ns; closed loop: from start, open loop: from when the op was due
	key    int32  // expectation index (checker.key) of the output
	hash   uint64 // canonHasher.sum of the output under the expectation's mode
	failed bool   // error or refusal; no output to check
	rung   int8   // service-mix ladder rung; 0 for the reported load
}

// window is what one measured window produced.
type window struct {
	ops      []opRecord
	elapsed  time.Duration // length of the rung-0 part of the window
	errs     []string      // the first few op errors, for diagnostics
	cache    bistpath.CacheStats
	reused   int     // session: phases reused across all session ops
	sessions int     // session ops run
	rejected int     // service: refused submissions (429/503/5xx)
	rss      float64 // peak RSS (MiB) at the end of the reported load
	late     []float64
	attempts int // service-mix: windows measured for the reported load
	rungs    []rungResult
	spans    []span
}

func (w *window) fail(err error) {
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// workload is one set-up instance of a workload.
type workload interface {
	// measure runs one window of length d; tr is nil for an untraced one.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	checker() *checker
	close()
}

// spec names a workload and fixes its reporting parameters.
type spec struct {
	name  string
	tail  float64 // the percentile latency_tail_ms is reported at
	parts int     // sub-windows the timing metrics are the median of
	setup func(ctx context.Context, e *env) (workload, error)
}

// Throughput and latency are computed on each of parts equal sub-windows
// of the measured window and reported as the median of the parts, so a
// burst of interference from outside the benchmark (CPU stolen by another
// tenant of the machine, a stalled disk) that covers less than half the
// window does not move them. explore is not split: its ops take up to a
// tenth of a second, its windows end on a pass over its deck, and a part
// of one would hold a different mix of items in every run.
var specs = []spec{
	{name: "cold-synth", tail: 99, parts: 5, setup: setupColdSynth},
	{name: "warm-repeat", tail: 99, parts: 5, setup: setupWarmRepeat},
	{name: "service-mix", tail: serviceTail, parts: 5, setup: setupServiceMix},
	{name: "explore", tail: 90, parts: 1, setup: setupExplore},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// env is what every workload's set-up receives.
type env struct {
	seed    int64
	workdir string // scratch directory inside the checkout (disk cache)
	nproc   int
	hasher  maphash.Seed
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

// result is one workload's outcome: metrics plus the facts behind them.
type result struct {
	name      string
	correct   bool
	attempted int
	failed    int
	problems  []string
	e2e       []metric
	layers    []metric
	table     []layerStat
	opMeanMS  float64
	tailNote  string
	lateMS    float64
	attempts  int
	rungs     []rungResult
}

type metric struct {
	name  string
	value float64
	unit  string
}

// runWorkload sets the workload up, measures it (untraced, then traced
// when asked), checks every output and derives the metrics.
func runWorkload(ctx context.Context, sp spec, e *env, seconds float64, traced bool, goldens *goldenSet, spanPath string) (*result, error) {
	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = sp.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	d := time.Duration(seconds * float64(time.Second))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := w.measure(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	windows := []*window{plain}
	var tw *window
	if traced {
		runtime.GC()
		tr := newTracer()
		if tw, err = w.measure(ctx, d, tr); err != nil {
			return nil, err
		}
		windows = append(windows, tw)
		if spanPath != "" {
			if err := writeSpans(spanPath, tw.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	r := &result{name: sp.name}
	ck := w.checker()
	want, problems := ck.check(ctx, goldens, newCanonHasher(e.hasher))
	r.problems = problems
	wrong := 0
	for _, win := range windows {
		for _, op := range win.ops {
			r.attempted++
			switch {
			case op.failed:
				r.failed++
			case op.hash != want[op.key]:
				r.failed++
				if wrong++; wrong <= 5 {
					e := ck.expects[op.key]
					r.problems = append(r.problems, fmt.Sprintf("output of an op on %s is not %s to its reference", ck.targets[e.t].d.name, e.mode))
				}
			}
		}
		for _, msg := range win.errs {
			r.problems = append(r.problems, "op error: "+msg)
		}
	}
	if wrong > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d op outputs differ from their references", wrong))
	}
	r.correct = len(r.problems) == 0

	r.e2e = endToEnd(sp, plain, ck, median(setups), r)
	if len(plain.late) > 0 {
		r.lateMS = lateP90(plain.late)
	}
	r.attempts = plain.attempts
	r.rungs = plain.rungs
	if traced {
		r.layers = perLayer(plain, tw, ck, &m0, &m1, r)
	}
	return r, nil
}

// part is the rung-0 ops of one sub-window, by start time.
type part struct {
	lat        []float64 // ms, sorted
	done       int       // ops that completed without failing
	first, end int64     // ns: the first op's start, the last op's end
}

// split divides the rung-0 ops of w into k parts of equal length by when
// they started (open loop: were due) within the window.
func split(w *window, k int) []part {
	var span int64
	for _, op := range w.ops {
		if op.rung == 0 {
			span = max(span, op.at+1)
		}
	}
	parts := make([]part, k)
	for i := range parts {
		parts[i].first = math.MaxInt64
	}
	for _, op := range w.ops {
		if op.rung != 0 {
			continue
		}
		p := &parts[op.at*int64(k)/span]
		p.lat = append(p.lat, float64(op.lat)/1e6)
		p.done += btoi(!op.failed)
		p.first, p.end = min(p.first, op.at), max(p.end, op.at+op.lat)
	}
	for i := range parts {
		sort.Float64s(parts[i].lat)
	}
	return parts
}

// timing returns throughput, median latency and tail latency at the
// workload's tail percentile, each the median over the workload's parts,
// and notes the percentile used with its smallest sample count.
func timing(sp spec, w *window) (tput, p50, tail float64, note string) {
	parts := split(w, sp.parts)
	n := math.MaxInt
	for _, pt := range parts {
		n = min(n, len(pt.lat))
	}
	p, beyond := tailPercentile(n, sp.tail)
	var ts, ms, tl []float64
	for _, pt := range parts {
		if pt.end > pt.first {
			ts = append(ts, float64(pt.done)/(float64(pt.end-pt.first)/1e9))
		}
		ms = append(ms, percentile(pt.lat, 50))
		tl = append(tl, percentile(pt.lat, p))
	}
	note = fmt.Sprintf("p%g, n=%d, %d beyond", p, n, beyond)
	if sp.parts > 1 {
		note = fmt.Sprintf("p%g, median of %d parts, n>=%d, %d beyond", p, sp.parts, n, beyond)
	}
	return median(ts), median(ms), median(tl), note
}

func throughput(w *window) float64 {
	n := 0
	for _, op := range w.ops {
		if op.rung == 0 && !op.failed {
			n++
		}
	}
	return float64(n) / w.elapsed.Seconds()
}

func endToEnd(sp spec, w *window, ck *checker, setup float64, r *result) []metric {
	tput, p50, tail, note := timing(sp, w)
	r.tailNote = note
	overhead := 0.0
	n := 0
	for _, t := range ck.targets {
		if t.ok {
			overhead += t.overhead
			n++
		}
	}
	if n > 0 {
		overhead /= float64(n)
	}
	return []metric{
		{"throughput_per_s", tput, "ops/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_tail_ms", tail, "ms"},
		{"peak_rss_mb", w.rss, "MiB"},
		{"bist_overhead_pct", overhead, "%"},
		{"setup_s", setup, "s"},
	}
}

// perLayer derives the per-layer metrics: span self times from the traced
// window, counters from the references, runtime deltas from the untraced
// window.
func perLayer(plain, traced *window, ck *checker, m0, m1 *runtime.MemStats, r *result) []metric {
	stats := summarize(traced.spans)
	r.table = stats
	perCall := func(name string, self bool) float64 {
		for _, s := range stats {
			if s.name == name {
				v := s.total
				if self {
					v = s.self
				}
				return float64(v) / float64(s.calls) / 1e6
			}
		}
		return 0
	}
	r.opMeanMS = perCall(layerOp, false)
	var c struct {
		lemma2, overrides, nodes, prunes, embeds, incumbents, gens, evals float64
		front, fronts, n                                                  float64
	}
	for _, t := range ck.targets {
		if !t.ok {
			continue
		}
		st := t.stats
		c.n++
		c.lemma2 += float64(st.Lemma2Checks)
		c.overrides += float64(st.CaseOverrides)
		c.nodes += float64(st.SearchNodes)
		c.prunes += float64(st.BoundPrunes)
		c.embeds += float64(st.EmbeddingsEnumerated)
		c.incumbents += float64(st.IncumbentUpdates)
		c.gens += float64(st.Generations)
		c.evals += float64(st.Evaluations)
		if t.pareto {
			c.front += float64(t.front)
			c.fronts++
		}
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	cs := traced.cache
	ops := float64(len(plain.ops))
	out := []metric{
		{"dfg.parse_ms", perCall(layerParse, true), "ms"},
	}
	for p := bistpath.PhaseValidate; p <= bistpath.PhaseBISTSearch; p++ {
		out = append(out, metric{p.String() + ".ms", perCall(p.String(), true), "ms"})
	}
	out = append(out,
		metric{"regassign.lemma2_checks", per(c.lemma2, c.n), "count"},
		metric{"regassign.case_overrides", per(c.overrides, c.n), "count"},
		metric{"bist.nodes", per(c.nodes, c.n), "count"},
		metric{"bist.prunes", per(c.prunes, c.n), "count"},
		metric{"bist.prune_ratio", per(c.prunes, c.nodes), "ratio"},
		metric{"bist.embeddings", per(c.embeds, c.n), "count"},
		metric{"bist.incumbents", per(c.incumbents, c.n), "count"},
		metric{"bist.generations", per(c.gens, c.n), "count"},
		metric{"bist.evaluations", per(c.evals, c.n), "count"},
		metric{"bist.front_size", per(c.front, c.fronts), "count"},
		metric{"cache.hit_ms", perCall(layerHit, false), "ms"},
		metric{"cache.disk_hit_ms", perCall(layerDiskHit, false), "ms"},
		metric{"cache.miss_overhead_ms", perCall(layerMiss, true), "ms"},
		metric{"cache.hit_ratio", per(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio"},
		metric{"cache.memory_hits", float64(cs.MemoryHits), "count"},
		metric{"cache.disk_hits", float64(cs.DiskHits), "count"},
		metric{"cache.coalesced", float64(cs.Coalesced), "count"},
		metric{"cache.evictions", float64(cs.Evictions), "count"},
		metric{"cache.disk_writes", float64(cs.DiskWrites), "count"},
		metric{"cache.disk_errors", float64(cs.DiskErrors), "count"},
		metric{"resultjson.encode_ms", perCall(layerEncode, false), "ms"},
		metric{"session.resynth_ms", perCall(layerResynth, false), "ms"},
		metric{"session.reused_phases", per(float64(traced.reused), float64(traced.sessions)), "count"},
		metric{"server.submit_ms", perCall(layerSubmit, false), "ms"},
		metric{"server.queue_wait_ms", perCall(layerQueueWait, false), "ms"},
		metric{"server.run_ms", perCall(layerRun, false), "ms"},
		metric{"server.result_ms", perCall(layerResult, false), "ms"},
		metric{"server.patch_ms", perCall(layerPatch, false), "ms"},
		metric{"server.rejected", float64(traced.rejected), "count"},
		metric{"max_rate_per_s", maxRate(plain.rungs), "jobs/s"},
		metric{"synth.residual_ms", perCall(layerOp, true), "ms"},
		metric{"runtime.allocs_per_op", per(float64(m1.Mallocs-m0.Mallocs), ops), "count/op"},
		metric{"runtime.alloc_bytes_per_op", per(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B/op"},
		metric{"runtime.gc_cycles", float64(m1.NumGC - m0.NumGC), "count"},
		metric{"trace.overhead_frac", 1 - throughput(traced)/throughput(plain), "ratio"},
	)
	return out
}

func addCacheStats(a, b bistpath.CacheStats) bistpath.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.MemoryHits += b.MemoryHits
	a.DiskHits += b.DiskHits
	a.Coalesced += b.Coalesced
	a.Evictions += b.Evictions
	a.DiskWrites += b.DiskWrites
	a.DiskErrors += b.DiskErrors
	return a
}

func subCacheStats(a, b bistpath.CacheStats) bistpath.CacheStats {
	b.Hits, b.Misses = -b.Hits, -b.Misses
	b.MemoryHits, b.DiskHits, b.Coalesced = -b.MemoryHits, -b.DiskHits, -b.Coalesced
	b.Evictions, b.DiskWrites, b.DiskErrors = -b.Evictions, -b.DiskWrites, -b.DiskErrors
	return addCacheStats(a, b)
}
