package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"strings"
)

// How an op's Result JSON is compared with its reference.
type canonMode uint8

const (
	// canonRaw: byte-identical. Cache hits (memory or disk) and wire copies
	// of a cached result replay the populating run's bytes exactly.
	canonRaw canonMode = iota
	// canonNoTimes: identical once every stats "*_ns" wall time is zeroed —
	// the normalization scripts/normjson applies. A sequential cold run
	// repeats every other byte, search counters included.
	canonNoTimes
	// canonNoStats: identical once the whole stats object is removed.
	// Session re-synthesis and parallel search legitimately change the
	// search-effort counters, never the design.
	canonNoStats
)

func (m canonMode) String() string {
	return [...]string{"byte-identical", "equal with wall times zeroed", "equal without stats"}[m]
}

// canonHasher hashes Result JSON documents under a canonMode without
// allocating, so ops can be fingerprinted inside the timed window and
// compared with their references after it.
type canonHasher struct {
	h maphash.Hash
}

func newCanonHasher(seed maphash.Seed) *canonHasher {
	c := &canonHasher{}
	c.h.SetSeed(seed)
	return c
}

var (
	nsMarker    = []byte(`_ns": `)
	statsMarker = []byte(",\n  \"stats\": {")
	statsEnd    = []byte("\n  }")
)

func (c *canonHasher) sum(mode canonMode, doc []byte) uint64 {
	c.h.Reset()
	doc = bytes.TrimSuffix(doc, []byte("\n"))
	switch mode {
	case canonNoTimes:
		for {
			i := bytes.Index(doc, nsMarker)
			if i < 0 {
				break
			}
			i += len(nsMarker)
			c.h.Write(doc[:i])
			c.h.WriteByte('0')
			j := i
			for j < len(doc) && doc[j] >= '0' && doc[j] <= '9' {
				j++
			}
			doc = doc[j:]
		}
	case canonNoStats:
		if i := bytes.Index(doc, statsMarker); i >= 0 {
			if j := bytes.Index(doc[i:], statsEnd); j >= 0 {
				c.h.Write(doc[:i])
				doc = doc[i+j+len(statsEnd):]
			}
		}
	}
	c.h.Write(doc)
	return c.h.Sum64()
}

// normalizeGolden re-marshals a Result JSON document (or an array of
// them) with every stats "*_ns" field zeroed, exactly as scripts/normjson
// does, for comparison with the checked-in goldens in testdata/.
func normalizeGolden(data []byte) ([]byte, error) {
	var docs []map[string]any
	single := false
	if err := json.Unmarshal(data, &docs); err != nil {
		var one map[string]any
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			return nil, fmt.Errorf("not a Result JSON document: %v", err)
		}
		docs, single = []map[string]any{one}, true
	}
	for i, doc := range docs {
		stats, ok := doc["stats"].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("document %d: missing stats object", i)
		}
		for k := range stats {
			if strings.HasSuffix(k, "_ns") {
				stats[k] = 0
			}
		}
	}
	var v any = docs
	if single {
		v = docs[0]
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
