package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bistpath"
)

// target is one distinct input a workload's ops may receive: a design
// (possibly edited) under one configuration. Every op records which
// target it computed and under which canonMode its output must match.
type target struct {
	d      *design
	pareto bool            // synthesize under the ParetoFront objective
	cfg    bistpath.Config // the configuration the ops run under
	cold   []byte          // bytes of the run that populated a cache, if any

	// Filled by checker.check from the reference synthesis.
	ok       bool
	overhead float64
	stats    bistpath.Stats
	front    int
	hash     [3]uint64 // the reference document's hash per canonMode
}

// expect is one (target, comparison) pair that ops refer to by index.
type expect struct {
	t    int
	mode canonMode
}

// checker owns a workload's targets and expectations and, after the
// measured windows, checks every recorded op against independent
// references: a sequential cold synthesis of the same input without a
// cache, itself checked by Result.Verify (or VerifyPareto) and, for the
// paper benchmarks, by the goldens.
type checker struct {
	targets []*target
	expects []expect
	byKey   map[expect]int32
}

// oracleTargets is how many targets of a workload, the first ones, are
// also verified with the brute-force oracles.
const oracleTargets = 8

func newChecker() *checker { return &checker{byKey: map[expect]int32{}} }

// addTarget registers a target and returns its index.
func (c *checker) addTarget(t *target) int {
	c.targets = append(c.targets, t)
	return len(c.targets) - 1
}

// key returns the expectation index ops record for (target, mode).
func (c *checker) key(t int, mode canonMode) int32 {
	e := expect{t, mode}
	if k, ok := c.byKey[e]; ok {
		return k
	}
	c.expects = append(c.expects, e)
	k := int32(len(c.expects) - 1)
	c.byKey[e] = k
	return k
}

func (c *checker) mode(k int32) canonMode { return c.expects[k].mode }

// verifyOptions caps the brute-force oracles so a run's checks stay in
// seconds; the invariants and the functional cross-check always run. The
// exhaustive register-binding oracle is off: each binding it tries costs
// a full pipeline run (tens of milliseconds on a preset-m design), which
// the repository's own verification sweeps already pay.
func verifyOptions(oracles bool) bistpath.VerifyOptions {
	return bistpath.VerifyOptions{
		Vectors:      20,
		Workers:      []int{1, 2},
		EmbeddingCap: 1 << 14,
		BindingLimit: -1,
		SkipOracles:  !oracles,
	}
}

// check synthesizes and verifies the reference of every target and
// returns, per expectation, the hash a correct op output has, plus the
// problems found. Raw expectations hash the populating run's bytes, after
// checking that they match the reference with wall times zeroed.
func (c *checker) check(ctx context.Context, goldens *goldenSet, h *canonHasher) ([]uint64, []string) {
	var problems []string
	for i, t := range c.targets {
		if err := c.reference(ctx, t, i < oracleTargets, goldens, h); err != nil {
			problems = append(problems, t.d.name+": "+err.Error())
		}
	}
	want := make([]uint64, len(c.expects))
	for k, e := range c.expects {
		t := c.targets[e.t]
		if !t.ok {
			continue
		}
		want[k] = t.hash[e.mode]
		if e.mode == canonRaw {
			if h.sum(canonNoTimes, t.cold) != t.hash[canonNoTimes] {
				problems = append(problems, t.d.name+": cached result differs from its cold reference")
			}
			want[k] = h.sum(canonRaw, t.cold)
		}
	}
	return want, problems
}

// reference runs one target's sequential cold synthesis (no cache, one
// search worker) and checks it.
func (c *checker) reference(ctx context.Context, t *target, oracles bool, goldens *goldenSet, h *canonHasher) error {
	g, err := t.d.parse()
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	cfg := t.cfg
	cfg.Workers, cfg.Cache, cfg.Observer = 1, nil, nil
	if t.pareto {
		cfg.Objective = bistpath.ParetoFront
	}
	res, err := g.SynthesizeCtx(ctx, t.d.mods, cfg)
	if err != nil {
		return fmt.Errorf("reference synthesis: %w", err)
	}
	doc, err := res.JSON()
	if err != nil {
		return fmt.Errorf("reference JSON: %w", err)
	}
	for m := range t.hash {
		t.hash[m] = h.sum(canonMode(m), doc)
	}
	t.overhead, t.stats, t.front = res.OverheadPct, res.Stats, len(res.Pareto)
	if t.pareto {
		rep, err := res.VerifyPareto(ctx, verifyOptions(oracles))
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return fmt.Errorf("VerifyPareto: %w", err)
		}
	} else {
		rep, err := res.Verify(ctx, verifyOptions(oracles))
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return fmt.Errorf("Verify: %w", err)
		}
	}
	if t.d.bench != "" {
		if err := goldens.check(t.d.bench, t.pareto, doc); err != nil {
			return err
		}
	}
	t.ok = true
	return nil
}

// goldenSet holds the checked-in paper-benchmark goldens.
type goldenSet struct {
	minArea map[string][]byte // testdata/<name>.golden.json, normalized
	pareto  map[string][]byte // elements of testdata/pareto.golden.json, normalized
}

func loadGoldens(dir string) (*goldenSet, error) {
	gs := &goldenSet{minArea: map[string][]byte{}, pareto: map[string][]byte{}}
	for _, name := range bistpath.BenchmarkNames() {
		raw, err := os.ReadFile(filepath.Join(dir, name+".golden.json"))
		if err != nil {
			return nil, err
		}
		if gs.minArea[name], err = normalizeGolden(raw); err != nil {
			return nil, fmt.Errorf("%s golden: %w", name, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "pareto.golden.json"))
	if err != nil {
		return nil, err
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		return nil, fmt.Errorf("pareto golden: %w", err)
	}
	for _, doc := range docs {
		var head struct{ Name string }
		if err := json.Unmarshal(doc, &head); err != nil {
			return nil, fmt.Errorf("pareto golden: %w", err)
		}
		if gs.pareto[head.Name], err = normalizeGolden(doc); err != nil {
			return nil, fmt.Errorf("pareto golden %s: %w", head.Name, err)
		}
	}
	return gs, nil
}

func (gs *goldenSet) check(bench string, pareto bool, doc []byte) error {
	want, file := gs.minArea[bench], bench+".golden.json"
	if pareto {
		want, file = gs.pareto[bench], "pareto.golden.json"
	}
	got, err := normalizeGolden(doc)
	if err != nil {
		return err
	}
	if want == nil || !bytes.Equal(got, want) {
		return fmt.Errorf("result differs from testdata/%s", file)
	}
	return nil
}
