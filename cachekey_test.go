package bistpath

import (
	"fmt"
	"testing"
	"time"
)

// TestCacheKeyPinned pins the canonical fingerprint for representative
// benchmark/config pairs. The hex values were captured before cacheKey
// was refactored into named sections (keySections), so these tests
// prove the sectioning reproduces the historical pre-image byte for
// byte — no persisted cache entry is invalidated by the refactor.
func TestCacheKeyPinned(t *testing.T) {
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 2, PeakPower: 3}
	weighted.Power = map[string]int{"m1": 4, "a1": 2}

	stoch := DefaultConfig()
	stoch.Search = SearchStochastic
	stoch.Seed = 7

	pins := []struct {
		bench string
		cfg   Config
		want  string
	}{
		{"ex1", DefaultConfig(), "e593ddba5d63cc0c89c5dd178c3dd1372182690a3d2edd4b3bc057e928c6f6c4"},
		{"ex1", weighted, "a5365a6466bded5857eb5ae3090497bb28d5b0873e5ba5b9dbde735bec209999"},
		{"ex1", stoch, "de020217e8fb7e597ce1e6d315a9cd7bf298f0d89c54949259414df608dbe82c"},
		{"paulin", DefaultConfig(), "9e4ef9193acde91ff11eb12847a71aede6edcad17a11b22cfc131c9cbdd846e9"},
		{"paulin", weighted, "e3c7d60050bd6abfef7d07e7cb081b4f50059bfb5057925090378f6775402c0d"},
		{"paulin", stoch, "17f7f1e3dbf2a684b0aad432225cada660e346beb340c98acd4f2d8236304562"},
	}
	for _, p := range pins {
		d, mods, err := Benchmark(p.bench)
		if err != nil {
			t.Fatalf("Benchmark(%s): %v", p.bench, err)
		}
		mb, err := bindModules(d.g, mods)
		if err != nil {
			t.Fatalf("bindModules(%s): %v", p.bench, err)
		}
		got := fmt.Sprintf("%x", cacheKey(d.g, mb, p.cfg))
		if got != p.want {
			t.Errorf("cacheKey(%s, %+v) = %s, want %s", p.bench, p.cfg, got, p.want)
		}
	}
}

// TestCacheKeySections checks the structural contract the incremental
// Session layer depends on: section order and names are fixed, the
// conditional sections are empty at their defaults, and an edit to one
// semantic input perturbs exactly the sections it should.
func TestCacheKeySections(t *testing.T) {
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := bindModules(d.g, mods)
	if err != nil {
		t.Fatal(err)
	}
	base := keySections(d.g, mb, DefaultConfig())

	wantOrder := []string{
		keySectionHeader, keySectionConfig, keySectionObjective,
		keySectionSearch, keySectionModules, keySectionPorts, keySectionDFG,
	}
	if len(base) != len(wantOrder) {
		t.Fatalf("keySections returned %d sections, want %d", len(base), len(wantOrder))
	}
	for i, name := range wantOrder {
		if base[i].name != name {
			t.Errorf("section %d = %q, want %q", i, base[i].name, name)
		}
	}
	if p := sectionPayload(base, keySectionObjective); p != "" {
		t.Errorf("objective section non-empty at MinArea: %q", p)
	}
	if p := sectionPayload(base, keySectionSearch); p != "" {
		t.Errorf("search section non-empty at SearchExact: %q", p)
	}
	if p := sectionPayload(base, keySectionDFG); p == "" {
		t.Error("dfg section empty")
	}

	// A step edit must perturb only the dfg section.
	edited, _, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	edited.g.Op("mul2").Step = 5
	after := keySections(edited.g, mb, DefaultConfig())
	for i := range base {
		same := base[i].payload == after[i].payload
		if base[i].name == keySectionDFG {
			if same {
				t.Error("step edit did not perturb the dfg section")
			}
		} else if !same {
			t.Errorf("step edit perturbed section %q", base[i].name)
		}
	}

	// A search-config change must perturb only the search section.
	stoch := DefaultConfig()
	stoch.Search = SearchStochastic
	stoch.Seed = 3
	stoch.TimeBudget = 0 * time.Second
	ss := keySections(d.g, mb, stoch)
	for i := range base {
		same := base[i].payload == ss[i].payload
		if base[i].name == keySectionSearch {
			if same {
				t.Error("search change did not perturb the search section")
			}
		} else if !same {
			t.Errorf("search change perturbed section %q", base[i].name)
		}
	}
}
