// Command perfbench is bistpath's end-to-end benchmark. From one process
// it drives four workloads through the library's public layers (ParseDFG,
// Synthesizer, Cache, Session, Result.JSON) and the in-process bistpathd
// handler, checks every output against independent references, and
// prints the end-to-end metrics (untraced) or the per-layer breakdown
// (traced). See README.md for the workloads and metrics.
//
//	perfbench --workload cold-synth --seed 1 --seconds 10 --trace 0
//	perfbench compare BASE_DIR HEAD_DIR
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every output was correct and the run was valid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-synth, warm-repeat, service-mix, explore, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs and op sequence")
	seconds := fs.Float64("seconds", 10, "length of each measured window")
	trace := fs.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for the disk cache and span files")
	testdata := fs.String("testdata", "testdata", "directory holding the paper-benchmark goldens")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var run []spec
	if *workload == "all" {
		run = specs
	} else if sp, ok := specByName(*workload); ok {
		run = []spec{sp}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	goldens, err := loadGoldens(*testdata)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: loading goldens: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	e := &env{seed: *seed, workdir: *workdir, nproc: runtime.NumCPU(), hasher: maphash.MakeSeed()}
	ctx := context.Background()
	out := finalLine{Correct: true, Metrics: map[string]jsonMetric{}}
	valid := true
	for _, sp := range run {
		spans := ""
		if *trace == 1 {
			spans = filepath.Join(*workdir, "spans-"+sp.name+".tsv")
		}
		r, err := runWorkload(ctx, sp, e, *seconds, *trace == 1, goldens, spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		st := newStamp(sp.name, *seed, *seconds, *trace, r)
		valid = valid && st.Valid
		printReport(stdout, st, r, *trace == 1)
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		ms := r.e2e
		if *trace == 1 {
			ms = r.layers
		}
		for _, m := range ms {
			name := m.name
			if len(run) > 1 {
				name = sp.name + "/" + name
			}
			out.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if !valid {
		fmt.Fprintln(stderr, "perfbench: run invalid (the load generator fell behind); no result reported")
		return 3
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// stamp records the machine and the run next to every result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	GenLateMS  float64 `json:"gen_late_ms"`           // service-mix: p90 generator wake-up lateness
	Windows    int     `json:"gen_windows,omitempty"` // service-mix: windows measured for the reported load
	Valid      bool    `json:"valid"`
}

// maxGenLateMS is the generator lateness (p90 of how late an idle client
// goroutine woke for a due job) past which a service-mix run is invalid:
// the load was no longer offered at the rate the run claims. Rare pauses
// of the whole process do not count against the generator: they delay
// the jobs too, and latency is timed from when each job was due.
const maxGenLateMS = serviceLimitMS / 2

func newStamp(workload string, seed int64, seconds float64, trace int, r *result) stamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		CPU: cpuModel(), Commit: commit, GenLateMS: r.lateMS, Windows: r.attempts,
		Valid: r.lateMS <= maxGenLateMS,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

const stampPrefix = "# stamp "

// printReport writes the human-readable part of a run: the stamp (one
// JSON line the compare mode reads back), one row with every end-to-end
// metric, the service ladder, the layer table of a traced run, and any
// problems the checks found.
func printReport(w io.Writer, st stamp, r *result, traced bool) {
	b, _ := json.Marshal(st) // plain struct: cannot fail
	fmt.Fprintln(w, stampPrefix+string(b))
	row := []string{r.name}
	for _, m := range r.e2e {
		row = append(row, fmt.Sprintf("%s=%.4g %s", m.name, m.value, m.unit))
		if m.name == "latency_tail_ms" {
			row[len(row)-1] += " (" + r.tailNote + ")"
		}
	}
	rate := "n/a (closed loop)"
	if len(r.rungs) > 0 {
		rate = fmt.Sprintf("%.4g jobs/s", maxRate(r.rungs))
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	row = append(row, "max_rate_per_s="+rate, fmt.Sprintf("failed_frac=%.4g ratio (%d/%d)", failedFrac, r.failed, r.attempted))
	fmt.Fprintln(w, strings.Join(row, "  "))
	for _, rr := range r.rungs {
		fmt.Fprintf(w, "  rung %6.1f jobs/s: achieved %.1f/s  p50 %.3f ms  tail %.3f ms  backlog growth %.3f ms  pass=%t\n",
			rr.rate, rr.achieved, rr.p50MS, rr.tailMS, rr.growthMS, rr.pass)
	}
	if traced {
		printLayers(w, r)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}
}

// maxRate is the achieved rate of the highest rung that passed, or 0.
func maxRate(rungs []rungResult) float64 {
	best := 0.0
	for _, rr := range rungs {
		if rr.pass {
			best = rr.achieved
		}
	}
	return best
}

func printLayers(w io.Writer, r *result) {
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %7s\n", "layer", "calls", "self ms/call", "ms/call", "share")
	var total int64
	for _, s := range r.table {
		total += s.self
	}
	for _, s := range r.table {
		fmt.Fprintf(w, "  %-22s %8d %12.4f %12.4f %6.1f%%\n", s.name, s.calls,
			float64(s.self)/float64(s.calls)/1e6, float64(s.total)/float64(s.calls)/1e6,
			100*float64(s.self)/float64(max(total, 1)))
	}
	fmt.Fprintf(w, "  op span %.4f ms/op = sum of the self times above per op\n", r.opMeanMS)
	for _, m := range r.layers {
		fmt.Fprintf(w, "  %-28s %.6g %s\n", m.name, m.value, m.unit)
	}
}
