package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistpath"
	"bistpath/internal/server"
)

// service-mix offers jobs at fixed rates (open loop) to an in-process
// bistpathd handler behind a loopback listener, from at most nproc client
// goroutines and connections.
const (
	serviceHot       = 16   // hot designs, the five paper benchmarks included
	serviceFreshPool = 4096 // distinct designs fresh submissions draw from
	serviceFresh     = 0.30 // share of job draws that submit a never-seen design
	servicePairs     = 0.05 // part of serviceFresh: draws that submit it twice at once
	servicePatch     = 0.15 // share of job draws that PATCH a completed hot job
	// The rest repeat a hot design: memory hits on the shared cache.
	// Rate and shares are assumptions, not taken from a traffic record;
	// perfbench/README.md gives the basis of each.

	// serviceRate is the reported load: latency_p50_ms, latency_tail_ms
	// and throughput_per_s are measured at it, for serviceReportShare of
	// an untraced window. The ladder then offers serviceRate×serviceStep^k
	// jobs/s, k = 1..serviceRungs, each for serviceRungShare of the
	// window, and stops at the first rung whose tail latency misses
	// serviceLimitMS or that leaves a backlog.
	serviceRate        = 150.0
	serviceStep        = 1.15
	serviceRungs       = 20
	serviceReportShare = 0.5
	serviceRungShare   = 0.05
	serviceLimitMS     = 10.0
	serviceAttempts    = 3
	serviceDisturbedMS = 0.01
)

type hotDesign struct {
	d      *design
	body   []byte   // POST body
	key    int32    // expectation for a repeat: the wire bytes of its first run
	ed     *edit    // PATCH edit; nil when the design has none
	edKeys [2]int32 // expectation after a PATCH back (0) or forward (1)

	mu   sync.Mutex
	last string // id of the most recent completed job of this design
}

func (h *hotDesign) setLast(id string) {
	h.mu.Lock()
	h.last = id
	h.mu.Unlock()
}

func (h *hotDesign) lastID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// jobPlan is one scheduled job.
type jobPlan struct {
	kind    byte // 'f' fresh, 'h' hot repeat, 'p' PATCH
	i       int  // fresh pool index or hot index
	forward bool // PATCH direction
}

type serviceMix struct {
	e         *env
	ck        *checker
	cache     *bistpath.Cache
	srv       *server.Server
	hs        *http.Server
	served    chan struct{}
	base      string
	client    *http.Client
	hot       []*hotDesign
	patchable []int
	fresh     []*design
	freshBody [][]byte
	freshKeys []int32
	freshPos  int
	rng       *rand.Rand
}

func setupServiceMix(ctx context.Context, e *env) (workload, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	hot := paperDesigns()
	drawn, err := drawPool(rng, serviceHot-len(hot), []share{{"sweep", 2}, {"s", 1}}, "hot", seen)
	if err != nil {
		return nil, err
	}
	hot = append(hot, drawn...)
	fresh, err := drawPool(rng, serviceFreshPool, []share{{"sweep", 2}, {"s", 1}}, "fresh", seen)
	if err != nil {
		return nil, err
	}

	w := &serviceMix{e: e, ck: newChecker(), fresh: fresh, rng: rng}
	w.cache, _ = bistpath.NewCache(bistpath.CacheOptions{}) // memory-only: cannot fail
	w.srv = server.New(server.Options{Workers: e.nproc, Cache: w.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.nproc,
		MaxIdleConnsPerHost: e.nproc,
		DisableCompression:  true,
	}}

	cfg := bistpath.DefaultConfig()
	for _, d := range fresh {
		w.freshBody = append(w.freshBody, submitBody(d))
		w.freshKeys = append(w.freshKeys, w.ck.key(w.ck.addTarget(&target{d: d, cfg: cfg}), canonNoTimes))
	}
	// Fill the shared cache with the hot set through the service itself;
	// each design's first wire result is what its repeats must replay.
	for i, d := range hot {
		hd := &hotDesign{d: d, body: submitBody(d)}
		t := &target{d: d, cfg: cfg}
		id, status, err := w.post(ctx, "/v1/jobs", hd.body, nil, 0, -1)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("submit: HTTP %d", status)
		}
		if err == nil {
			t.cold, err = w.follow(ctx, id, nil, 0, -1)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("hot design %s: %w", d.name, err)
		}
		hd.setLast(id)
		ti := w.ck.addTarget(t)
		hd.key = w.ck.key(ti, canonRaw)
		if hd.ed = firstEdit(ctx, d, rng); hd.ed != nil {
			et := w.ck.addTarget(&target{d: hd.ed.edited(d), cfg: cfg})
			hd.edKeys = [2]int32{w.ck.key(ti, canonNoStats), w.ck.key(et, canonNoStats)}
			w.patchable = append(w.patchable, i)
		}
		w.hot = append(w.hot, hd)
	}
	// The job sequence draws from its own stream.
	w.rng = rand.New(rand.NewSource(e.seed ^ 0x5eed))
	return w, nil
}

// firstEdit returns the first candidate edit of d, in seeded order, whose
// edited design synthesizes.
func firstEdit(ctx context.Context, d *design, rng *rand.Rand) *edit {
	eds := candidateEdits(d)
	rng.Shuffle(len(eds), func(a, b int) { eds[a], eds[b] = eds[b], eds[a] })
	for _, ed := range eds {
		g, err := ed.edited(d).parse()
		if err != nil {
			continue
		}
		if _, err := g.SynthesizeCtx(ctx, d.mods, bistpath.DefaultConfig()); err == nil {
			return ed
		}
	}
	return nil
}

// submitBody is the POST /v1/jobs body a client sends for d: paper
// benchmarks by name, generated designs as DFG text plus module map.
func submitBody(d *design) []byte {
	var req any = map[string]any{"dfg": d.text, "modules": d.mods}
	if d.bench != "" {
		req = map[string]string{"benchmark": d.bench}
	}
	b, _ := json.Marshal(req) // strings and a string map: cannot fail
	return b
}

// plan draws the next n jobs of the seeded job sequence.
func (w *serviceMix) plan(n int) []jobPlan {
	out := make([]jobPlan, 0, n+1)
	for len(out) < n {
		u := w.rng.Float64()
		switch {
		case u < servicePairs:
			i := w.nextFresh()
			out = append(out, jobPlan{kind: 'f', i: i}, jobPlan{kind: 'f', i: i})
		case u < serviceFresh:
			out = append(out, jobPlan{kind: 'f', i: w.nextFresh()})
		case u < serviceFresh+servicePatch && len(w.patchable) > 0:
			out = append(out, jobPlan{kind: 'p', i: w.patchable[w.rng.Intn(len(w.patchable))], forward: w.rng.Intn(2) == 1})
		default:
			out = append(out, jobPlan{kind: 'h', i: w.rng.Intn(len(w.hot))})
		}
	}
	return out[:n]
}

// nextFresh hands out fresh designs in order; past the pool's end they
// repeat, which the cache then serves as hits (the pool is sized so an
// untraced and a traced window, ladder included, do not get there on a
// 2-vCPU box, which sustains about 1000-1400 jobs/s).
func (w *serviceMix) nextFresh() int {
	i := w.freshPos % len(w.fresh)
	w.freshPos++
	return i
}

// rungResult is one ladder rung's outcome.
type rungResult struct {
	rate     float64 // offered, jobs/s
	achieved float64 // completed jobs/s over the rung
	tailMS   float64
	p50MS    float64
	growthMS float64 // backlogGrowth of the rung's send lags
	pass     bool
	elapsed  time.Duration
}

func (w *serviceMix) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	before := w.cache.Stats()
	report := d
	if tr == nil {
		report = time.Duration(float64(d) * serviceReportShare)
	}
	rr := w.report(ctx, report, tr, win)
	win.elapsed = rr.elapsed
	win.rungs = append(win.rungs, rr)
	rate := serviceRate
	for k := 1; tr == nil && rr.pass && k <= serviceRungs; k++ {
		rate *= serviceStep
		rr = w.rung(ctx, rate, time.Duration(float64(d)*serviceRungShare), int8(k), nil, win)
		win.rungs = append(win.rungs, rr)
	}
	win.cache = subCacheStats(w.cache.Stats(), before)
	return win, nil
}

// report measures the reported load, serviceRate jobs/s for d. An
// untraced window whose client goroutines woke late for their jobs
// (p90 over serviceDisturbedMS) is measured again, up to serviceAttempts
// windows in all, and the one whose client was least late is reported.
// The client spins to each due time, so on a machine that lends it a CPU
// it is a few microseconds late; when it is later than that, another
// tenant of the machine held the CPU, and the window measured that tenant
// as much as the service. Discarded windows keep their ops with rung -1,
// so their outputs are still checked and counted as attempted.
func (w *serviceMix) report(ctx context.Context, d time.Duration, tr *tracer, win *window) rungResult {
	var best *window
	var rr rungResult
	for a := 0; a < serviceAttempts && (tr == nil || a == 0); a++ {
		aw := &window{}
		r := w.rung(ctx, serviceRate, d, 0, tr, aw)
		win.errs = append(win.errs, aw.errs...)
		win.spans = aw.spans
		if win.attempts++; win.attempts == 1 {
			// Before the ladder, whose height varies run to run, and
			// before any further window, which adds its results to the
			// cache.
			win.rss = peakRSSMB()
		}
		if best == nil || lateP90(aw.late) < lateP90(best.late) {
			if best != nil {
				discard(best, win)
			}
			best, rr = aw, r
		} else {
			discard(aw, win)
		}
		if lateP90(best.late) <= serviceDisturbedMS {
			break
		}
	}
	win.ops = append(win.ops, best.ops...)
	win.late = best.late
	win.rejected += best.rejected
	return rr
}

// discard keeps a window's ops in win, outside the reported load.
func discard(aw, win *window) {
	for i := range aw.ops {
		aw.ops[i].rung = -1
	}
	win.ops = append(win.ops, aw.ops...)
	win.rejected += aw.rejected
}

// lateP90 is the p90 of a window's generator lateness samples, in ms.
func lateP90(late []float64) float64 {
	s := append([]float64(nil), late...)
	sort.Float64s(s)
	return percentile(s, 90)
}

// rung offers rate jobs/s for d with at most nproc client goroutines
// (and so connections), each timing its jobs from when they were due.
func (w *serviceMix) rung(ctx context.Context, rate float64, d time.Duration, id int8, tr *tracer, win *window) rungResult {
	n := int(rate * d.Seconds())
	jobs := w.plan(n)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		records = make([]opRecord, n)
		lags    = make([]time.Duration, n) // how late each job was sent
		late    []float64
	)
	tracers := make([]*tracer, w.e.nproc)
	start := time.Now().Add(5 * time.Millisecond)
	for k := range tracers {
		if tr != nil {
			tracers[k] = &tracer{epoch: tr.epoch}
		}
		wg.Add(1)
		go func(t *tracer) {
			defer wg.Done()
			h := newCanonHasher(w.e.hasher) // one per goroutine: it holds hash state
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				idle := time.Until(due) > 0
				if idle {
					waitUntil(due)
				}
				lags[i] = time.Since(due)
				if idle {
					mu.Lock()
					late = append(late, float64(lags[i])/1e6)
					mu.Unlock()
				}
				rec, err := w.runJob(ctx, jobs[i], due, int32(i), t, h)
				rec.rung, rec.at = id, int64(due.Sub(start))
				records[i] = rec
				if err != nil {
					mu.Lock()
					win.fail(err)
					mu.Unlock()
				}
			}
		}(tracers[k])
	}
	wg.Wait()
	elapsed := time.Since(start)
	win.ops = append(win.ops, records...)
	if id == 0 {
		win.late = append(win.late, late...)
	}
	var lat []float64
	missed := 0
	for _, r := range records {
		if r.failed {
			win.rejected += btoi(r.key == rejectedKey)
		}
		ms := float64(r.lat) / 1e6
		lat = append(lat, ms)
		if r.failed || ms > serviceLimitMS {
			missed++
		}
	}
	sort.Float64s(lat)
	p, beyond := tailPercentile(len(lat), serviceTail)
	rr := rungResult{rate: rate, achieved: float64(n) / elapsed.Seconds(),
		tailMS: percentile(lat, p), p50MS: percentile(lat, 50), elapsed: elapsed,
		growthMS: backlogGrowth(lags)}
	rr.pass = missed <= beyond && rr.growthMS <= serviceLimitMS/2
	if tr != nil {
		for _, t := range tracers {
			base := int32(len(tr.spans))
			for _, s := range t.spans {
				if s.parent >= 0 {
					s.parent += base
				}
				tr.spans = append(tr.spans, s)
			}
		}
		win.spans = tr.spans
	}
	return rr
}

// waitUntil returns at t. time.Sleep alone wakes up to about a
// millisecond late on Linux, and jobs are timed from when they were due,
// so that lateness would count as the server's latency. It sleeps until
// spinMargin before t and yields the processor in a loop for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinMargin = 2 * time.Millisecond

// serviceTail is the percentile service-mix reports and limits.
const serviceTail = 90

// backlogGrowth is how much later, on average, the last quarter of a
// rung's jobs were sent than its first quarter, in ms. A backlog that
// grows shows as a steadily rising lag; a pause the client recovers from
// does not.
func backlogGrowth(lags []time.Duration) float64 {
	q := len(lags) / 4
	if q == 0 {
		return 0
	}
	var first, last time.Duration
	for i := 0; i < q; i++ {
		first += lags[i]
		last += lags[len(lags)-1-i]
	}
	return float64(last-first) / float64(q) / 1e6
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rejectedKey marks a job the service refused (429, 503 or 5xx).
const rejectedKey = -2

// runJob carries one job through the service: POST (or PATCH) → SSE
// stream to the terminal event → GET result.
func (w *serviceMix) runJob(ctx context.Context, j jobPlan, due time.Time, op int32, tr *tracer, h *canonHasher) (opRecord, error) {
	var root int32 = -1
	if tr != nil {
		root = tr.begin(layerOp, op, -1)
		tr.spans[root].start = int64(due.Sub(tr.epoch))
		tr.add(layerClientLag, op, root, tr.spans[root].start, tr.now())
	}
	rec := opRecord{}
	var (
		id     string
		status int
		err    error
		hd     *hotDesign
	)
	switch j.kind {
	case 'f':
		rec.key = w.freshKeys[j.i]
		id, status, err = w.post(ctx, "/v1/jobs", w.freshBody[j.i], tr, op, root)
	case 'h':
		hd = w.hot[j.i]
		rec.key = hd.key
		id, status, err = w.post(ctx, "/v1/jobs", hd.body, tr, op, root)
	case 'p':
		hd = w.hot[j.i]
		rec.key = hd.edKeys[btoi(j.forward)]
		id, status, err = w.patch(ctx, hd.lastID(), []byte(hd.ed.patchBody(j.forward)), tr, op, root)
	}
	var doc []byte
	if err == nil && status != http.StatusAccepted {
		if status == http.StatusTooManyRequests || status >= 500 {
			rec.key = rejectedKey
		}
		err = fmt.Errorf("%c job: HTTP %d", j.kind, status)
	}
	if err == nil {
		doc, err = w.follow(ctx, id, tr, op, root)
	}
	tr.end(root)
	rec.lat = int64(time.Since(due))
	if err != nil {
		rec.failed = true
		return rec, err
	}
	if hd != nil {
		hd.setLast(id)
	}
	rec.hash = h.sum(w.ck.mode(rec.key), doc)
	return rec, nil
}

// post submits a job and returns its id and the HTTP status.
func (w *serviceMix) post(ctx context.Context, path string, body []byte, tr *tracer, op, root int32) (string, int, error) {
	s := tr.begin(layerSubmit, op, root)
	defer tr.end(s)
	return w.send(ctx, http.MethodPost, path, body)
}

func (w *serviceMix) patch(ctx context.Context, parent string, body []byte, tr *tracer, op, root int32) (string, int, error) {
	s := tr.begin(layerPatch, op, root)
	defer tr.end(s)
	return w.send(ctx, http.MethodPatch, "/v1/jobs/"+parent, body)
}

func (w *serviceMix) send(ctx context.Context, method, path string, body []byte) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
		return "", resp.StatusCode, fmt.Errorf("submit response without job id: %q", data)
	}
	return v.ID, resp.StatusCode, nil
}

// follow streams the job's events to its terminal event, then fetches the
// result document.
func (w *serviceMix) follow(ctx context.Context, id string, tr *tracer, op, root int32) ([]byte, error) {
	accepted := tr.now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	first := int64(-1)
	terminal, err := readEvents(resp.Body, func(name string) {
		if first < 0 && (name == "phase-start" || name == "cache-hit") {
			first = tr.now()
		}
	})
	io.Copy(io.Discard, resp.Body) // let the connection be reused
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if first < 0 {
			first = accepted
		}
		tr.add(layerQueueWait, op, root, accepted, first)
		tr.add(layerRun, op, root, first, tr.now())
	}
	if terminal != "done" {
		return nil, fmt.Errorf("job %s ended %s", id, terminal)
	}
	s := tr.begin(layerResult, op, root)
	defer tr.end(s)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err = w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result of %s: HTTP %d", id, resp.StatusCode)
	}
	return doc, nil
}

// readEvents reads SSE frames, reporting each event name, until a
// terminal event (done, failed or canceled), which it returns.
func readEvents(body io.Reader, onEvent func(name string)) (string, error) {
	r := bufio.NewReader(body)
	for {
		line, err := r.ReadString('\n')
		if name, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "event: "); ok {
			onEvent(name)
			if name == "done" || name == "failed" || name == "canceled" {
				return name, nil
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return "", fmt.Errorf("event stream ended before a terminal event: %w", err)
		}
	}
}

func (w *serviceMix) checker() *checker { return w.ck }

func (w *serviceMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Drain(ctx)
	w.hs.Shutdown(ctx)
	<-w.served
	w.client.CloseIdleConnections()
}
