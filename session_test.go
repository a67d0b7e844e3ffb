package bistpath

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
)

// stripStatsJSON renders a Result's JSON with the "stats" member
// removed — the one part of the document that is wall-time dependent.
// Everything else is covered by the determinism contract, so two
// Results for the same design must agree on it byte for byte.
func stripStatsJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	delete(m, "stats")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(out)
}

// assertSameResult asserts the incremental and from-scratch results are
// identical in every deterministic observable: strict ReportText
// equality and stats-stripped JSON equality.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if g, w := got.ReportText(), want.ReportText(); g != w {
		t.Errorf("%s: ReportText diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s", label, g, w)
	}
	if g, w := stripStatsJSON(t, got), stripStatsJSON(t, want); g != w {
		t.Errorf("%s: stats-stripped JSON diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s", label, g, w)
	}
}

func hasPhase(st Stats, ph Phase) bool {
	for _, p := range st.ReusedPhases {
		if p == ph.String() {
			return true
		}
	}
	return false
}

func TestSessionReplaysUnchangedDesign(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	cold, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Stats.ReusedPhases) != 0 {
		t.Fatalf("first run reused phases: %v", cold.Stats.ReusedPhases)
	}

	// No edits at all → full replay.
	again, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Stats.ReusedPhases) != len(allPhaseNames()) {
		t.Fatalf("unchanged design reused %v, want all phases", again.Stats.ReusedPhases)
	}
	if again.Stats.IncrementalSpeedup <= 0 {
		t.Errorf("replay run has no IncrementalSpeedup: %v", again.Stats.IncrementalSpeedup)
	}
	assertSameResult(t, "replay", again, cold)

	// A structural edit that is undone before Resynthesize leaves the
	// key pre-image unchanged (it sees the net effect, not the edit
	// log) — a full replay.
	if err := ss.RetimePort("a", true); err != nil {
		t.Fatal(err)
	}
	if err := ss.RetimePort("a", false); err != nil {
		t.Fatal(err)
	}
	reverted, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reverted.Stats.ReusedPhases) != len(allPhaseNames()) {
		t.Fatalf("undone structural edit reused %v, want all phases", reverted.Stats.ReusedPhases)
	}
	assertSameResult(t, "undone structural edit", reverted, cold)

	// A step edit that is undone still nets out to the previous design,
	// but takes the reschedule fast path: only validation re-runs;
	// everything downstream is reused.
	step := ss.g.Op("mul2").Step
	if err := ss.SetStep("mul2", step+1); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStep("mul2", step); err != nil {
		t.Fatal(err)
	}
	undone, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []Phase{PhaseRegisterBind, PhaseInterconnect, PhaseDatapath, PhaseBISTSearch} {
		if !hasPhase(undone.Stats, ph) {
			t.Fatalf("undone step edit reused %v, missing %s", undone.Stats.ReusedPhases, ph)
		}
	}
	assertSameResult(t, "undone step edit", undone, cold)
}

func TestSessionConflictPreservingEditReusesBindAndPlan(t *testing.T) {
	for _, tc := range sessionObjectives() {
		t.Run(tc.name, func(t *testing.T) { conflictPreservingEdit(t, tc.cfg) })
	}
}

// conflictPreservingEdit checks, under cfg, that a conflict-preserving
// step edit reuses the register binding and the BIST plan on the
// reschedule fast path, that a follow-up edit which keeps the fast path
// out re-runs the full pipeline (reusing no phase, and replaying no
// stale key), and that both stay identical to a from-scratch synthesis
// of the edited design.
func conflictPreservingEdit(t *testing.T, cfg Config) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSessionConfig(d, mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The incremental result must match a from-scratch synthesis of the
	// edited design exactly.
	matchesCold := func(label string, step int, res *Result) {
		t.Helper()
		ref := &DFG{g: d.g.Clone()}
		ref.g.Op("mul2").Step = step
		want, err := ref.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, label, res, want)
	}

	// Moving mul2 from step 4 to 5 preserves every lifetime overlap and
	// the data-path structure (established by the incremental CI gate's
	// benchmark design), so both expensive phases must be reused — here
	// by the steps-only fast path.
	if err := ss.SetStep("mul2", 5); err != nil {
		t.Fatal(err)
	}
	warm, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(warm.Stats, PhaseRegisterBind) {
		t.Errorf("mul2@5: register-bind not reused: %v", warm.Stats.ReusedPhases)
	}
	if !hasPhase(warm.Stats, PhaseBISTSearch) {
		t.Errorf("mul2@5: bist-search not reused: %v", warm.Stats.ReusedPhases)
	}
	if warm.Stats.IncrementalSpeedup <= 0 {
		t.Errorf("mul2@5: no IncrementalSpeedup recorded: %v", warm.Stats.IncrementalSpeedup)
	}
	matchesCold("mul2@5", 5, warm)

	// Moving it back alongside a no-op ReplaceOp keeps the fast path out.
	// The inputs now equal the first run's, but the fast path must have
	// cleared the stored key, so this is a full pipeline run that reuses
	// no phase — a replay would hand back mul2@5's control program.
	if err := ss.SetStep("mul2", 4); err != nil {
		t.Fatal(err)
	}
	if err := ss.ReplaceOp("mul2", string(d.g.Op("mul2").Kind)); err != nil {
		t.Fatal(err)
	}
	back, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Stats.ReusedPhases) != 0 {
		t.Errorf("mul2@4 via pipeline: reused %v, want none", back.Stats.ReusedPhases)
	}
	matchesCold("mul2@4 via pipeline", 4, back)
}

func TestSessionMutatorValidation(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if err := ss.SetStep("nosuch", 1); err == nil {
		t.Error("SetStep on unknown op succeeded")
	}
	if err := ss.SetStep("mul2", 0); err == nil {
		t.Error("SetStep to step 0 succeeded")
	}
	if err := ss.ReplaceOp("mul2", "%%"); err == nil {
		t.Error("ReplaceOp with invalid kind succeeded")
	}
	if err := ss.RetimePort("nosuch", true); err == nil {
		t.Error("RetimePort on unknown variable succeeded")
	}
	// Port-marking requires a primary input: op results are not eligible.
	if err := ss.RetimePort(ss.g.Op("mul2").Result, true); err == nil {
		t.Error("RetimePort on a non-input succeeded")
	}
	if len(ss.Deltas()) != 0 {
		t.Errorf("failed edits recorded deltas: %v", ss.Deltas())
	}

	auto, err := s.NewSession(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if err := auto.RemapModule("mul2", "m1"); err == nil {
		t.Error("RemapModule on an automatic-binding session succeeded")
	}
}

func TestSessionDeltasRecordedAndConsumed(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if err := ss.SetStep("mul2", 5); err != nil {
		t.Fatal(err)
	}
	if err := ss.ReplaceOp("mul2", "*"); err != nil {
		t.Fatal(err)
	}
	ds := ss.Deltas()
	if len(ds) != 2 || ds[0].Kind != DeltaSetStep || ds[1].Kind != DeltaReplaceOp {
		t.Fatalf("deltas = %v", ds)
	}
	if ds[0].String() != "set-step mul2 @5" {
		t.Errorf("Delta.String = %q", ds[0].String())
	}
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ss.Deltas()) != 0 {
		t.Errorf("successful Resynthesize left deltas pending: %v", ss.Deltas())
	}
}

func TestSessionClosed(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStep("mul2", 5); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("SetStep after Close: %v", err)
	}
	if _, err := ss.Resynthesize(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Resynthesize after Close: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	// A closed Synthesizer refuses new sessions ...
	s2 := New(DefaultConfig())
	s2.Close()
	if _, err := s2.NewSession(d, mods); !errors.Is(err, ErrSynthesizerClosed) {
		t.Errorf("NewSession on closed synthesizer: %v", err)
	}
}

func TestSessionIsolatedFromCallerDFG(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	before := d.g.Op("mul2").Step
	if err := ss.SetStep("mul2", before+1); err != nil {
		t.Fatal(err)
	}
	if d.g.Op("mul2").Step != before {
		t.Error("session edit leaked into the caller's DFG")
	}
	mods["mul2"] = "corrupted"
	if ss.opToModule["mul2"] == "corrupted" {
		t.Error("caller's map edit leaked into the session")
	}
}

// applyRandomEdit drives one random mutator on the session and mirrors
// it on a plain graph + module map, so the mirror can be synthesized
// from scratch as the ground truth. Returns false if the chosen edit
// was rejected (and therefore mirrored nowhere).
func applyRandomEdit(t *testing.T, rng *rand.Rand, ss *Session, mirror *DFG, mirrorMods map[string]string) bool {
	t.Helper()
	ops := mirror.g.Ops()
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(4) {
	case 0, 1: // reschedule, the common incremental edit
		step := 1 + rng.Intn(mirror.g.NumSteps()+1)
		if err := ss.SetStep(op.Name, step); err != nil {
			t.Fatalf("SetStep(%s, %d): %v", op.Name, step, err)
		}
		mirror.g.Op(op.Name).Step = step
	case 2: // toggle a port mark on a random primary input
		var inputs []string
		for _, v := range mirror.g.Vars() {
			if v.IsInput {
				inputs = append(inputs, v.Name)
			}
		}
		if len(inputs) == 0 {
			return false
		}
		name := inputs[rng.Intn(len(inputs))]
		port := !mirror.g.Var(name).IsPort
		if err := ss.RetimePort(name, port); err != nil {
			t.Fatalf("RetimePort(%s, %t): %v", name, port, err)
		}
		mirror.g.Var(name).IsPort = port
	case 3: // remap to another module of the explicit map
		var pool []string
		seen := map[string]bool{}
		for _, m := range mirrorMods {
			if !seen[m] {
				seen[m] = true
				pool = append(pool, m)
			}
		}
		if len(pool) < 2 {
			return false
		}
		target := pool[rng.Intn(len(pool))]
		if err := ss.RemapModule(op.Name, target); err != nil {
			t.Fatalf("RemapModule(%s, %s): %v", op.Name, target, err)
		}
		mirrorMods[op.Name] = target
	}
	return true
}

// TestSessionDifferentialRandomEdits is the Session property test:
// over random designs and random edit scripts, every Resynthesize must
// be indistinguishable (stats aside) from a from-scratch synthesis of
// the identically edited mirror design — including agreeing on whether
// the edited design is synthesizable at all. It runs under the area
// objective and under WeightedSum, whose plans cachePolicy also lets
// the steps-only fast path reuse.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	for _, tc := range sessionObjectives() {
		t.Run(tc.name, func(t *testing.T) { sessionDifferential(t, tc.cfg) })
	}
}

// sessionObjectives are the configurations the Session reuse tests run
// under: the paper's area objective and a WeightedSum objective.
func sessionObjectives() []struct {
	name string
	cfg  Config
} {
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 3, PeakPower: 2}
	return []struct {
		name string
		cfg  Config
	}{{"area", DefaultConfig()}, {"weighted", weighted}}
}

// sessionDifferential runs the differential sweep under cfg.
func sessionDifferential(t *testing.T, cfg Config) {
	t.Helper()
	s := New(DefaultConfig())
	defer s.Close()
	for seed := int64(1); seed <= 6; seed++ {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ss, err := s.NewSessionConfig(d, mods, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mirror := &DFG{g: d.g.Clone()}
		mirrorMods := make(map[string]string, len(mods))
		for k, v := range mods {
			mirrorMods[k] = v
		}
		rng := rand.New(rand.NewSource(seed * 977))
		for round := 0; round < 6; round++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				applyRandomEdit(t, rng, ss, mirror, mirrorMods)
			}
			got, errGot := ss.Resynthesize(context.Background())
			want, errWant := mirror.SynthesizeCtx(context.Background(), mirrorMods, cfg)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d round %d: incremental err %v, from-scratch err %v\ndesign:\n%s",
					seed, round, errGot, errWant, mirror.Text())
			}
			if errGot != nil {
				continue // both rejected the edited design the same way
			}
			assertSameResult(t, "seed/round", got, want)
			if t.Failed() {
				t.Fatalf("seed %d round %d diverged (reused %v)\ndesign:\n%s",
					seed, round, got.Stats.ReusedPhases, mirror.Text())
			}
		}
		ss.Close()
	}
}
