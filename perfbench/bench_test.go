package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"strings"
	"testing"

	"bistpath"
)

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 100}, {90, 180}, {99, 198}, {99.9, 200}, {100, 200}, {0, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// which the steadiness check of the benchmark's runs uses; the expected
// values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 7, 7, 2, 10.5}, [3]float64{2, 7, 9}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestTailPercentileSmallSamples(t *testing.T) {
	for _, c := range []struct {
		n          int
		want       float64
		p          float64
		wantBeyond int
	}{
		{1000, 99, 99, 10},  // exactly ten beyond p99
		{999, 99, 95, 49},   // nine beyond p99: fall back to p95
		{5000, 90, 90, 500}, // a p90 workload never reports higher
		{100, 90, 90, 10},
		{99, 90, 75, 24},
		{20, 99, 50, 10},
		{19, 99, 100, 0}, // too few for any rung: the maximum, flagged by 0 beyond
		{0, 99, 100, 0},
	} {
		p, beyond := tailPercentile(c.n, c.want)
		if p != c.p || beyond != c.wantBeyond {
			t.Errorf("tailPercentile(%d, %g) = p%g with %d beyond, want p%g with %d", c.n, c.want, p, beyond, c.p, c.wantBeyond)
		}
	}
}

// A burst that slows one part of five moves none of the medians; a
// slowdown over the whole window moves them all.
func TestTimingParts(t *testing.T) {
	sp := spec{tail: 90, parts: 5}
	win := func(slow func(at int64) bool) *window {
		w := &window{}
		for i := int64(0); i < 1000; i++ {
			at, lat := i*1e6, int64(1e6)
			if slow(at) {
				lat = 10e6
			}
			w.ops = append(w.ops, opRecord{at: at, lat: lat})
		}
		return w
	}
	tput, p50, tail, _ := timing(sp, win(func(at int64) bool { return at >= 400e6 && at < 600e6 }))
	if math.Abs(tput-1000) > 5 || p50 != 1 || tail != 1 {
		t.Errorf("burst in one part: throughput %g, p50 %g, tail %g; want about 1000, 1, 1", tput, p50, tail)
	}
	tput, p50, tail, _ = timing(sp, win(func(at int64) bool { return true }))
	if p50 != 10 || tail != 10 {
		t.Errorf("slow window: p50 %g, tail %g; want 10, 10", p50, tail)
	}
	if tput >= 1000 {
		t.Errorf("slow window: throughput %g, want below 1000", tput)
	}
	// One part: the plain whole-window figures.
	_, p50, tail, note := timing(spec{tail: 90, parts: 1}, win(func(at int64) bool { return at >= 850e6 }))
	if p50 != 1 || tail != 10 || !strings.HasPrefix(note, "p90, n=1000, 100 beyond") {
		t.Errorf("one part: p50 %g, tail %g (%s); want 1, 10, p90 with 100 beyond", p50, tail, note)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},  // nested
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a: 10..60 covered once
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the parent: clipped to 90..100
		{name: "a1", parent: 1, start: 15, end: 20}, // grandchild
		{name: "d", parent: 0, start: 70, end: 70},  // empty
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for _, l := range summarize(spans) {
		if l.name == "a" && (l.calls != 1 || l.self != 25 || l.total != 30) {
			t.Fatalf("summarize: layer a = %+v, want 1 call, 25 self, 30 total", l)
		}
	}
}

func TestCanonHash(t *testing.T) {
	h := newCanonHasher(maphash.MakeSeed())
	doc := func(ns, nodes int) []byte {
		return []byte(fmt.Sprintf("{\n  \"name\": \"x\",\n  \"stats\": {\n    \"search_nodes\": %d,\n    \"total_ns\": %d,\n    \"validate_ns\": %d\n  }\n}", nodes, ns, ns+7))
	}
	a, b, c := doc(1234, 5), doc(98765, 5), doc(1234, 6)
	if h.sum(canonRaw, a) == h.sum(canonRaw, b) {
		t.Error("raw hashes of documents with different wall times agree")
	}
	if h.sum(canonNoTimes, a) != h.sum(canonNoTimes, b) {
		t.Error("wall times are not normalized away")
	}
	if h.sum(canonNoTimes, a) == h.sum(canonNoTimes, c) {
		t.Error("a changed search counter is normalized away")
	}
	if h.sum(canonNoStats, a) != h.sum(canonNoStats, c) {
		t.Error("the stats object is not stripped")
	}
	if h.sum(canonRaw, append(a, '\n')) != h.sum(canonRaw, a) {
		t.Error("the wire's trailing newline changes the hash")
	}
	if h.sum(canonNoStats, []byte("{\n  \"name\": \"y\"\n}")) == h.sum(canonNoStats, a) {
		t.Error("the design content is stripped with the stats")
	}
}

func TestJudge(t *testing.T) {
	b := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{scale(0.8), "improved"},
		{scale(1.3), "regressed"},
		{scale(1.02), "within-bound"},
	} {
		if got := judge(base, c.head, b).verdict; got != c.want {
			t.Errorf("judge(head %v) = %s, want %s", c.head[:2], got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 20, 3, 10, 9, 11}
	if got := judge(noisy, noisy, b).verdict; got != "unresolved" {
		t.Errorf("judge on a spread wider than the bound = %s, want unresolved", got)
	}
	hb := boundSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	if got := judge(base, scale(0.7), hb).verdict; got != "regressed" {
		t.Errorf("judge on lower throughput = %s, want regressed", got)
	}
	// A deterministic metric regresses on any paired increase, even one
	// far inside its bound, and is unchanged when every pair is equal.
	ob := boundSpec{Name: "bist_overhead_pct", Better: "lower", Bound: 0.03}
	worse := append([]float64(nil), base...)
	worse[3] += 0.001
	if got := judge(base, worse, ob).verdict; got != "regressed" {
		t.Errorf("judge on one raised overhead = %s, want regressed", got)
	}
	if got := judge(base, base, ob).verdict; got != "within-bound" {
		t.Errorf("judge on identical overheads = %s, want within-bound", got)
	}
}

// sequence renders a workload's inputs and the first n ops it would run:
// the same seed must give the same rendering, another seed another one.
func sequence(t *testing.T, w workload, n int) string {
	t.Helper()
	var sb strings.Builder
	for _, tg := range w.checker().targets {
		sb.WriteString(tg.d.text)
		fmt.Fprintln(&sb, tg.d.mods, tg.d.ports)
	}
	switch w := w.(type) {
	case *coldSynth:
		for i := 0; i < n; i++ {
			fmt.Fprint(&sb, w.next(), " ")
		}
	case *warmRepeat:
		for _, ws := range w.sessions {
			fmt.Fprintln(&sb, ws.d.name, ws.ed)
		}
		for i := 0; i < n; i++ {
			k, j := w.next()
			fmt.Fprintf(&sb, "%c%d ", k, j)
		}
	case *explore:
		for i := 0; i < n; i++ {
			fmt.Fprint(&sb, w.next(), " ")
		}
	case *serviceMix:
		for _, hd := range w.hot {
			fmt.Fprintln(&sb, hd.d.name, hd.ed)
		}
		fmt.Fprint(&sb, w.plan(n))
	default:
		t.Fatalf("unknown workload type %T", w)
	}
	return sb.String()
}

func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up three times")
	}
	ctx := context.Background()
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			render := func(seed int64) string {
				e := &env{seed: seed, workdir: t.TempDir(), nproc: 2, hasher: maphash.MakeSeed()}
				w, err := sp.setup(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				defer w.close()
				return sequence(t, w, 500)
			}
			a, b, c := render(7), render(7), render(8)
			if a != b {
				t.Error("the same seed gave different inputs or op sequences")
			}
			if a == c {
				t.Error("different seeds gave the same inputs and op sequence")
			}
		})
	}
}

// A short end-to-end run of every workload: all outputs check out against
// their references and the traced window yields every per-layer metric.
func TestWorkloadsCheckOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	goldens, err := loadGoldens("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			e := &env{seed: 3, workdir: t.TempDir(), nproc: 2, hasher: maphash.MakeSeed()}
			r, err := runWorkload(context.Background(), sp, e, 0.3, true, goldens, "")
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 {
				t.Fatalf("%d of %d ops failed; problems: %v", r.failed, r.attempted, r.problems)
			}
			if len(r.e2e) != 6 || len(r.layers) == 0 {
				t.Fatalf("metrics missing: %d end-to-end, %d per-layer", len(r.e2e), len(r.layers))
			}
		})
	}
}

// candidateEdits never makes an input that is also a primary output
// port-fed, because synthesis accepts such a design but returns a data
// path that fails Result.Verify ("output bound to no register"). This
// test pins that defect: once synthesis rejects such a design or its
// result verifies, it fails, and the exclusion in candidateEdits should
// go, so that the workloads' edits cover those inputs again.
func TestRetimedOutputInputStillFailsVerify(t *testing.T) {
	pool := paperDesigns()
	more, err := fixedPool("sweep", 40, "sweep", map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := bistpath.DefaultConfig()
	cfg.Workers = 1
	tried := 0
	for _, d := range append(pool, more...) {
		for _, in := range d.g.Inputs() {
			if v := d.g.Var(in); v.IsPort || !v.IsOutput {
				continue
			}
			tried++
			ed := (&edit{kind: "retime_port", v: in}).edited(d)
			g, err := ed.parse()
			if err != nil {
				t.Fatalf("%s, %s port-fed: %v", d.name, in, err)
			}
			res, err := g.SynthesizeCtx(ctx, ed.mods, cfg)
			if err != nil {
				t.Fatalf("%s, %s port-fed: synthesis now rejects the design (%v); drop the exclusion in candidateEdits", d.name, in, err)
			}
			rep, err := res.Verify(ctx, verifyOptions(false))
			if err == nil {
				err = rep.Err()
			}
			if err == nil {
				t.Fatalf("%s, %s port-fed: the result now verifies; drop the exclusion in candidateEdits", d.name, in)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no design has an input that is also an output; the test checks nothing")
	}
	t.Logf("%d port-fed output inputs, all accepted by synthesis and failing Verify", tried)
}
