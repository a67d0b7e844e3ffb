package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"bistpath"
)

// Layer names of the spans the benchmark records around its calls into
// bistpath. The phase layers are named exactly as bistpath.Phase prints.
const (
	layerOp        = "op"                // one op: input in, Result JSON out
	layerParse     = "dfg.parse"         // bistpath.ParseDFG (+ port marks)
	layerMiss      = "cache.miss"        // Synthesize that ran the pipeline
	layerHit       = "cache.hit"         // Synthesize served from memory
	layerDiskHit   = "cache.disk-hit"    // fresh NewCache(Dir) + Synthesize
	layerResynth   = "session.resynth"   // Session edit + Resynthesize
	layerEncode    = "resultjson.encode" // Result.JSON
	layerSubmit    = "server.submit"     // POST /v1/jobs round trip
	layerPatch     = "server.patch"      // PATCH /v1/jobs/{id} round trip
	layerQueueWait = "server.queue-wait" // 202 → first phase or cache-hit frame
	layerRun       = "server.run"        // first frame → terminal frame
	layerResult    = "server.result"     // GET /v1/jobs/{id}/result
	layerClientLag = "client.lag"        // job due → request sent (wake-up lateness, busy clients)
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent indexes the tracer's span slice (-1 for an op's root).
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64
}

// tracer keeps the spans of one traced window in memory; they are
// written out once the window ends. A tracer is used by one goroutine,
// except where a caller serializes access itself.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the time since the epoch; 0 on a nil (untraced) tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its index; a nil tracer records nothing
// and returns -1, so untraced code paths pay one nil check.
func (t *tracer) begin(name string, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, op, parent int32, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
}

// phaseObserver returns a bistpath.Observer that turns PhaseStart/PhaseEnd
// events into child spans of *parent, timestamped on arrival. Phase events
// arrive on the synthesizing goroutine, which is the goroutine that owns
// the tracer; search-progress events from search workers are ignored
// before any tracer state is touched.
func (t *tracer) phaseObserver(op, parent *int32) bistpath.Observer {
	var starts [8]int64
	return func(e bistpath.Event) {
		switch e.Kind {
		case bistpath.PhaseStart:
			starts[e.Phase] = t.now()
		case bistpath.PhaseEnd:
			t.add(e.Phase.String(), *op, *parent, starts[e.Phase], t.now())
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged
// first, so concurrent children are not subtracted twice, and children
// are clipped to the parent's bounds.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
				continue
			}
			curEnd = max(curEnd, hi)
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStat aggregates one layer over a traced window.
type layerStat struct {
	name  string
	calls int
	total int64 // summed span durations, ns
	self  int64 // summed self times, ns
}

// summarize folds spans into per-layer totals, ordered by self time.
func summarize(spans []span) []layerStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerStat
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, layerStat{name: s.name})
		}
		out[j].calls++
		out[j].total += s.end - s.start
		out[j].self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeSpans writes every span as one tab-separated line:
// op, index, parent, name, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
