package bist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

// planOf builds a Plan directly from embeddings, deriving styles the
// way the optimizer does, without scheduling (tests call
// ScheduleSessions themselves).
func planOf(embs ...Embedding) *Plan {
	m := make(map[string]Embedding, len(embs))
	for _, e := range embs {
		m[e.Module] = e
	}
	return &Plan{Embeddings: m, Styles: stylesOf(m)}
}

func TestScheduleSessionsEmptyPlan(t *testing.T) {
	p := &Plan{Embeddings: map[string]Embedding{}, Styles: map[string]area.Style{}}
	if s := ScheduleSessions(p); len(s) != 0 {
		t.Fatalf("empty plan scheduled into %d sessions, want 0", len(s))
	}
	p.Sessions = ScheduleSessions(p)
	if p.NumSessions() != 0 {
		t.Fatalf("NumSessions = %d, want 0", p.NumSessions())
	}
	if err := p.checkSession(nil); err != nil {
		t.Fatalf("empty session rejected: %v", err)
	}
}

func TestScheduleSessionsSingleModule(t *testing.T) {
	p := planOf(Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r3"})
	s := ScheduleSessions(p)
	if len(s) != 1 || len(s[0]) != 1 || s[0][0] != "m1" {
		t.Fatalf("single-module plan scheduled as %v, want [[m1]]", s)
	}
}

func TestScheduleSessionsAllModulesOneSession(t *testing.T) {
	// Disjoint tails and no head-of-one == tail-of-another: every module
	// fits in the first session. Sharing a TPG head (r1 for m1 and m2)
	// is explicitly fine — both receive the same pseudo-random stream.
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r3"},
		Embedding{Module: "m2", HeadL: "r1", HeadR: "r4", Tail: "r5"},
		Embedding{Module: "m3", HeadL: "r6", HeadR: "r7", Tail: "r8"},
	)
	s := ScheduleSessions(p)
	want := [][]string{{"m1", "m2", "m3"}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("schedule %v, want %v", s, want)
	}
}

func TestScheduleSessionsSharedTailSplits(t *testing.T) {
	// One signature register cannot compact responses for two modules at
	// once: a shared tail forces separate sessions.
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r9"},
		Embedding{Module: "m2", HeadL: "r3", HeadR: "r4", Tail: "r9"},
	)
	s := ScheduleSessions(p)
	if len(s) != 2 {
		t.Fatalf("shared-tail modules scheduled into %d sessions, want 2", len(s))
	}
	if !p.sessionConflict("m1", "m2") || !p.sessionConflict("m2", "m1") {
		t.Fatal("sessionConflict not symmetric on a shared tail")
	}
}

func TestScheduleSessionsCrossedHeadTail(t *testing.T) {
	// r2 generates for m2 and compacts for m1. As a plain BILBO it can
	// only do one at a time, so the modules split...
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", Tail: "r2"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r3"},
	)
	if got := p.Styles["r2"]; got != area.BILBO {
		t.Fatalf("r2 style %v, want BILBO", got)
	}
	if s := ScheduleSessions(p); len(s) != 2 {
		t.Fatalf("BILBO-crossed modules scheduled into %d sessions, want 2", len(s))
	}

	// ...but when the same register is a CBILBO (head and tail of m1),
	// it generates and compacts concurrently, and one session suffices.
	q := planOf(
		Embedding{Module: "m1", HeadL: "r2", Tail: "r2"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r3"},
	)
	if got := q.Styles["r2"]; got != area.CBILBO {
		t.Fatalf("r2 style %v, want CBILBO", got)
	}
	if s := ScheduleSessions(q); len(s) != 1 {
		t.Fatalf("CBILBO-crossed modules scheduled into %d sessions, want 1", len(s))
	}
}

func TestScheduleSessionsPadHeadsNeverConflict(t *testing.T) {
	// Pad heads are directly controllable and upgrade no register; a pad
	// "crossing" a tail must not force a split.
	p := planOf(
		Embedding{Module: "m1", HeadL: "in:a", Tail: "r1"},
		Embedding{Module: "m2", HeadL: "r1", HeadR: "in:a", Tail: "r2"},
	)
	// m2's head r1 is m1's tail (r1 is TPG for m2, SA for m1 → BILBO):
	// that crossing is real. But swap so only the pad crosses:
	q := planOf(
		Embedding{Module: "m1", HeadL: "in:a", Tail: "r1"},
		Embedding{Module: "m2", HeadL: "r3", HeadR: "in:a", Tail: "r2"},
	)
	if s := ScheduleSessions(q); len(s) != 1 {
		t.Fatalf("pad-only interaction split the schedule: %v", s)
	}
	if s := ScheduleSessions(p); len(s) != 2 {
		t.Fatalf("real register crossing not split: %v", s)
	}
}

func TestScheduleSessionsDeterministicOrder(t *testing.T) {
	// First-fit walks modules in sorted name order, so the schedule is a
	// pure function of the plan regardless of map iteration order.
	p := planOf(
		Embedding{Module: "m3", HeadL: "r1", Tail: "r2"},
		Embedding{Module: "m1", HeadL: "r1", Tail: "r3"},
		Embedding{Module: "m2", HeadL: "r1", Tail: "r3"}, // shares m1's tail
	)
	want := ScheduleSessions(p)
	for i := 0; i < 20; i++ {
		if got := ScheduleSessions(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: schedule %v != %v", i, got, want)
		}
	}
	if len(want) != 2 {
		t.Fatalf("schedule %v, want 2 sessions", want)
	}
	if want[0][0] != "m1" {
		t.Fatalf("first session starts with %q, want m1 (sorted first-fit)", want[0][0])
	}
}

func TestCheckSessionRejectsConflict(t *testing.T) {
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", Tail: "r9"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r9"},
	)
	if err := p.checkSession([]string{"m1", "m2"}); err == nil {
		t.Fatal("conflicting session accepted")
	}
	if err := p.checkSession([]string{"m1"}); err != nil {
		t.Fatalf("singleton session rejected: %v", err)
	}
}

// scheduleCorpus is the scheduler differential corpus: the five paper
// designs, sweep seeds 1–60 and preset-s seeds 1–8.
func scheduleCorpus(t *testing.T) (names []string, dps []*datapath.Datapath) {
	t.Helper()
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		names, dps = append(names, b.Name), append(dps, dp)
	}
	random := func(name string, cfg benchdata.RandomConfig) {
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dp, err := datapath.Build(g, mb, rb, ib, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, dps = append(names, name), append(dps, dp)
	}
	for seed := int64(1); seed <= 60; seed++ {
		random(fmt.Sprintf("sweep%d", seed), benchdata.SweepConfig(seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg, _ := benchdata.Preset("s", seed)
		random(fmt.Sprintf("s%d", seed), cfg)
	}
	return names, dps
}

// The interned scheduler both searches evaluate leaves with must agree
// with the reference ScheduleSessions + PlanCost on seeded random
// complete assignments: the same sessions in the same membership order,
// and the same (area, sessions, peak power) vector. A quarter of the
// module choices favour CBILBO-forming embeddings, and the corpus must
// exercise a head that is another module's tail both with and without
// a CBILBO on that register — the one conflict rule that reads the
// duty counters.
func TestInternedScheduleDifferential(t *testing.T) {
	const perDesign = 100
	var crossedCB, crossedPlain int
	names, dps := scheduleCorpus(t)
	for d, dp := range dps {
		opts := DefaultOptions(8)
		sp, err := prepareSpace(dp, opts, NewScratch())
		if err != nil {
			t.Fatalf("%s: %v", names[d], err)
		}
		a := &searchArena{}
		a.size(sp.nregs, len(sp.mods))
		ev := newDutyEval(&sp, a)
		power := PowerWeights(opts.Model, dp, nil)
		rng := rand.New(rand.NewSource(int64(d) + 1))
		asg := make([]int32, len(sp.mods))
		for k := 0; k < perDesign; k++ {
			for i, m := range sp.mods {
				asg[i] = int32(rng.Intn(len(m.embs)))
				if rng.Intn(4) == 0 {
					for j, e := range m.embs {
						if e.NeedsCBILBO() {
							asg[i] = int32(j)
							break
						}
					}
				}
				ev.apply(sp.refs[i][asg[i]])
			}
			got := a.schedule(sp.refs, sp.byName, asg)
			peak := 0
			gotNames := make([][]string, len(got))
			for i, sess := range got {
				sum := 0
				for _, p := range sess {
					gotNames[i] = append(gotNames[i], sp.mods[p].name)
					sum += power[sp.mods[p].name]
				}
				peak = max(peak, sum)
			}

			ref := PlanFromEmbeddings(opts.Model, sp.embeddingsOf(asg), true)
			if !reflect.DeepEqual(gotNames, ref.Sessions) {
				t.Fatalf("%s assignment %d %v: interned sessions %v, ScheduleSessions %v",
					names[d], k, asg, gotNames, ref.Sessions)
			}
			if v, want := (CostVector{Area: ev.cost, TestTime: len(got), PeakPower: peak}), PlanCost(ref, power); v != want {
				t.Fatalf("%s assignment %d %v: interned vector %v, PlanCost %v", names[d], k, asg, v, want)
			}
			for _, x := range ref.Embeddings {
				for _, y := range ref.Embeddings {
					if x.Module == y.Module || (x.HeadL != y.Tail && x.HeadR != y.Tail) {
						continue
					}
					if ref.Styles[y.Tail] == area.CBILBO {
						crossedCB++
					} else {
						crossedPlain++
					}
				}
			}
			for i, g := range asg {
				ev.undo(sp.refs[i][g])
			}
		}
	}
	if crossedCB == 0 || crossedPlain == 0 {
		t.Fatalf("corpus never crossed a head onto another module's tail both ways: %d with CBILBO, %d without",
			crossedCB, crossedPlain)
	}
	t.Logf("%d designs, %d crossings onto a CBILBO, %d onto a plain register", len(dps), crossedCB, crossedPlain)
}
