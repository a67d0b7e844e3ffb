package interconnect

import (
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// bindInput is one fully prepared Bind call: register-bound by the
// paper's binder, weighted by the design's sharing degrees.
type bindInput struct {
	name string
	g    *dfg.Graph
	mb   *modassign.Binding
	rb   *regassign.Binding
	sh   *regassign.Sharing
}

func newBindInput(tb testing.TB, name string, g *dfg.Graph, mb *modassign.Binding) bindInput {
	tb.Helper()
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return bindInput{name: name, g: g, mb: mb, rb: rb, sh: regassign.NewSharing(g, mb)}
}

// bindInputs returns the benchmarked designs: paulin, and preset-l seed 2,
// whose four largest modules carry 9–12 free instances.
func bindInputs(tb testing.TB) []bindInput {
	tb.Helper()
	p := benchdata.Paulin()
	pmb, err := p.Modules()
	if err != nil {
		tb.Fatal(err)
	}
	cfg, _ := benchdata.Preset("l", 2)
	lg, lmb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return []bindInput{
		newBindInput(tb, "paulin", p.Graph, pmb),
		newBindInput(tb, "preset-l_seed=2", lg, lmb),
	}
}

func BenchmarkInterconnectBind(b *testing.B) {
	for _, in := range bindInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Bind(in.g, in.mb, in.rb, in.sh); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Bind allocates its result, the Swapped map's buckets and one set of
// search buffers per call; nothing per module or per swap mask. With Go
// 1.24 that is 6 allocations on paulin and 14 on preset-l seed 2 (up to
// 2^12 masks per module), the extra ones growing the Swapped map.
func TestInterconnectBindSteadyStateAllocs(t *testing.T) {
	const bound = 16
	for _, in := range bindInputs(t) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Bind(in.g, in.mb, in.rb, in.sh); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%s: %.0f allocs per Bind, want ≤ %d", in.name, allocs, bound)
		}
	}
}
