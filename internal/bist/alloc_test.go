package bist

import (
	"context"
	"testing"

	"bistpath/internal/benchdata"
)

// Fig. 1 guard: I-path embedding enumeration through AppendEmbeddings
// must be allocation-free once the destination slice has warmed to the
// data path's full embedding count — this is the form the optimizer's
// scratch arenas enumerate through on every search, so a regression
// here silently reintroduces per-search garbage.
func TestAppendEmbeddingsAllocFree(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	var dst []Embedding
	for _, m := range dp.Modules {
		dst = AppendEmbeddings(dst, dp, m.Name, true)
	}
	if len(dst) == 0 {
		t.Fatal("no embeddings enumerated")
	}
	want := len(dst)
	avg := testing.AllocsPerRun(200, func() {
		dst = dst[:0]
		for _, m := range dp.Modules {
			dst = AppendEmbeddings(dst, dp, m.Name, true)
		}
	})
	if len(dst) != want {
		t.Fatalf("re-enumeration found %d embeddings, want %d", len(dst), want)
	}
	if avg != 0 {
		t.Fatalf("AppendEmbeddings into warmed capacity allocates %.1f allocs/run, want 0", avg)
	}
}

// Steady-state guard for the whole search: with a reused Scratch the
// branch and bound on a paper benchmark must stay within a small pinned
// allocation budget (the Plan and its result maps are the only per-call
// allocations left).
func TestOptimizeScratchSteadyStateAllocs(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Tseng1(), false)
	opts := DefaultOptions(8)
	opts.Scratch = NewScratch()
	if _, err := Optimize(dp, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Optimize(dp, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Pinned at the post-arena count with a small headroom: the winning
	// Plan (embedding + style maps, session schedule) is built fresh per
	// call; the search itself must not allocate.
	const budget = 80
	if avg > budget {
		t.Fatalf("Optimize with warm Scratch allocates %.1f allocs/run, want <= %d", avg, budget)
	}
}

// Steady-state guard for the Pareto walk: paulin's 41,472 leaves each
// schedule their sessions on the interned scheduler's reused buffers,
// so with a warm Scratch the allocations left are the archive members'
// assignment copies and the front assembly (plans, maps, validation),
// never the per-leaf evaluation.
func TestOptimizeParetoSteadyStateAllocs(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	opts := DefaultOptions(8)
	opts.Scratch = NewScratch()
	if _, err := OptimizePareto(context.Background(), dp, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := OptimizePareto(context.Background(), dp, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Pinned above the measured 162 (the same with and without -race)
	// with small headroom; one allocation per leaf would add 41,472.
	const budget = 250
	if avg > budget {
		t.Fatalf("OptimizePareto with warm Scratch allocates %.1f allocs/run, want <= %d", avg, budget)
	}
}
