package interconnect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// bindReference is the straightforward orientation search Bind must
// reproduce: for every swap mask in ascending order it rebuilds the two
// port source sets from scratch and keeps the first mask with the best
// score.
func bindReference(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) (*Binding, error) {
	ib := &Binding{Swapped: make(map[string]bool)}
	for _, m := range mb.Modules {
		if err := bindModuleReference(g, m, rb, sh, ib); err != nil {
			return nil, err
		}
	}
	return ib, nil
}

func bindModuleReference(g *dfg.Graph, m *modassign.Module, rb *regassign.Binding, sh *regassign.Sharing, ib *Binding) error {
	type inst struct {
		op   *dfg.Op
		a, b string // source ids
		comm bool
	}
	var insts []inst
	for _, opName := range m.Ops {
		op := g.Op(opName)
		a := SourceOf(rb, g, op.Args[0])
		b := a
		if op.Binary() {
			b = SourceOf(rb, g, op.Args[1])
		}
		if a == "" || b == "" {
			return fmt.Errorf("interconnect: op %s has operand with no register", opName)
		}
		insts = append(insts, inst{op: op, a: a, b: b, comm: op.Kind.Commutative() && op.Binary()})
	}
	var free []int // indices of commutative instances with distinct sources
	for i, in := range insts {
		if in.comm && in.a != in.b {
			free = append(free, i)
		}
	}
	if len(free) > 20 {
		return fmt.Errorf("interconnect: module %s has %d free instances (search cap exceeded)", m.Name, len(free))
	}
	type scoreT struct {
		muxInputs int
		lrCount   int
		lrSD      int // negated preference: higher is better
	}
	better := func(x, y scoreT) bool {
		if x.muxInputs != y.muxInputs {
			return x.muxInputs < y.muxInputs
		}
		if x.lrCount != y.lrCount {
			return x.lrCount < y.lrCount
		}
		return x.lrSD > y.lrSD
	}
	evaluate := func(mask int) scoreT {
		left := make(map[string]bool)
		right := make(map[string]bool)
		for i, in := range insts {
			a, b := in.a, in.b
			for bit, fi := range free {
				if fi == i && mask&(1<<uint(bit)) != 0 {
					a, b = b, a
				}
			}
			left[a] = true
			if in.op.Binary() {
				right[b] = true
			}
		}
		var s scoreT
		s.muxInputs = len(left) + len(right)
		for src := range left {
			if right[src] {
				s.lrCount++
				if sh != nil && !IsPad(src) {
					if r := rb.Register(src); r != nil {
						s.lrSD += sh.SDReg(r.Vars)
					}
				}
			}
		}
		return s
	}
	bestMask, bestScore := 0, evaluate(0)
	for mask := 1; mask < 1<<uint(len(free)); mask++ {
		if s := evaluate(mask); better(s, bestScore) {
			bestMask, bestScore = mask, s
		}
	}
	for bit, fi := range free {
		if bestMask&(1<<uint(bit)) != 0 {
			ib.Swapped[insts[fi].op.Name] = true
		}
	}
	return nil
}

// bindCase is one (graph, module binding, register binding) input of the
// differential corpus.
type bindCase struct {
	name string
	g    *dfg.Graph
	mb   *modassign.Binding
	rb   *regassign.Binding
}

// bindCorpus is the differential corpus: the five paper benchmarks, sweep
// seeds 1–60, preset-s and preset-m seeds 1–40 and preset-l seeds 1–6,
// each register-bound by the paper's binder and by the binder with every
// mechanism off.
func bindCorpus(t testing.TB) []bindCase {
	t.Helper()
	var out []bindCase
	add := func(name string, g *dfg.Graph, mb *modassign.Binding) {
		for _, o := range []struct {
			tag  string
			opts regassign.Options
		}{{"default", regassign.DefaultOptions()}, {"off", regassign.Options{}}} {
			rb, err := regassign.Bind(g, mb, o.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, o.tag, err)
			}
			out = append(out, bindCase{name: name + "/" + o.tag, g: g, mb: mb, rb: rb})
		}
	}
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		add(b.Name, b.Graph, mb)
	}
	random := func(name string, cfg benchdata.RandomConfig) {
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, g, mb)
	}
	for seed := int64(1); seed <= 60; seed++ {
		random(fmt.Sprintf("sweep%d", seed), benchdata.SweepConfig(seed))
	}
	for _, p := range []struct {
		preset string
		seeds  int64
	}{{"s", 40}, {"m", 40}, {"l", 6}} {
		for seed := int64(1); seed <= p.seeds; seed++ {
			cfg, _ := benchdata.Preset(p.preset, seed)
			random(fmt.Sprintf("%s%d", p.preset, seed), cfg)
		}
	}
	return out
}

// assertSameBinding fails unless Bind and bindReference agree on the
// Swapped map and the error.
func assertSameBinding(t *testing.T, name string, g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) {
	t.Helper()
	got, gotErr := Bind(g, mb, rb, sh)
	want, wantErr := bindReference(g, mb, rb, sh)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got.Swapped, want.Swapped) {
		t.Fatalf("%s: Swapped %v, reference %v", name, got.Swapped, want.Swapped)
	}
}

// Bind's interned Gray-code walk must pick exactly the orientation of the
// reference scan on every corpus design, unweighted and weighted.
func TestBindMatchesReference(t *testing.T) {
	for _, c := range bindCorpus(t) {
		assertSameBinding(t, c.name+"/unweighted", c.g, c.mb, c.rb, nil)
		assertSameBinding(t, c.name+"/weighted", c.g, c.mb, c.rb, regassign.NewSharing(c.g, c.mb))
	}
}

// With three free instances the Gray-code walk visits masks in the order
// 0,1,3,2,6,7,5,4, so a best score shared by masks 2–5 is first reached
// at mask 3. The lowest mask, 2, must still win: swap f1 only.
func TestBindTieKeepsLowestMask(t *testing.T) {
	g := dfg.New("tie")
	g.AddInput("p", "q", "c", "d")
	// pp and qq put p and q on both ports whatever f0's orientation, so
	// f0 (bit 0) never changes the score.
	g.AddOp("pp", dfg.Mul, 1, "x1", "p", "p")
	g.AddOp("qq", dfg.Mul, 2, "x2", "q", "q")
	g.AddOp("f0", dfg.Mul, 3, "x3", "p", "q")
	// f1 (bit 1) and f2 (bit 2) read c and d in opposite orders: the
	// best score needs exactly one of them swapped.
	g.AddOp("f1", dfg.Mul, 4, "x4", "c", "d")
	g.AddOp("f2", dfg.Mul, 5, "x5", "d", "c")
	g.MarkOutput("x1", "x2", "x3", "x4", "x5")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := map[string]string{"pp": "M1", "qq": "M1", "f0": "M1", "f1": "M1", "f2": "M1"}
	mb, err := modassign.FromMap(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	rb := regassign.FromSets([][]string{{"p"}, {"q"}, {"c"}, {"d"}, {"x1", "x2", "x3", "x4", "x5"}})
	ib, err := Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"f1": true}; !reflect.DeepEqual(ib.Swapped, want) {
		t.Errorf("Swapped = %v, want %v (mask 2)", ib.Swapped, want)
	}
	assertSameBinding(t, "tie", g, mb, rb, nil)
}

// A module with 21 free instances exceeds the 2^20 search cap.
func TestBindSearchCap(t *testing.T) {
	g := dfg.New("cap")
	ops := make(map[string]string)
	var sets [][]string
	for i := 0; i < 21; i++ {
		a, b, y := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("y%d", i)
		g.AddInput(a, b)
		g.AddOp(fmt.Sprintf("m%d", i), dfg.Add, i+1, y, a, b)
		g.MarkOutput(y)
		ops[fmt.Sprintf("m%d", i)] = "M1"
		sets = append(sets, []string{a}, []string{b}, []string{y})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	rb := regassign.FromSets(sets)
	_, err = Bind(g, mb, rb, nil)
	if err == nil || !strings.Contains(err.Error(), "module M1 has 21 free instances (search cap exceeded)") {
		t.Fatalf("err = %v, want the search cap error", err)
	}
	assertSameBinding(t, "cap", g, mb, rb, nil)
}
