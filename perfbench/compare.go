package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runOutput is one saved run: its stamp and its final line.
type runOutput struct {
	stamp stamp
	final finalLine
}

// boundSpec is one end-to-end metric as BENCHMARK.json declares it.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare implements `perfbench compare BASE HEAD`: both arguments are
// directories (or single files) of saved untraced run outputs. Runs pair
// up by workload and seed; every end-to-end metric of BENCHMARK.json gets
// each side's median and quartiles, the share of pairs HEAD wins and a
// verdict.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] BASE HEAD")
		return 2
	}
	var def struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sides [2]map[string]map[int64]runOutput
	for i, path := range fs.Args() {
		runs, skipped, err := loadRuns(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
		if skipped > 0 {
			fmt.Fprintf(stdout, "%s: skipped %d outputs without a valid result\n", path, skipped)
		}
		sides[i] = runs
	}
	workloads := make([]string, 0, len(sides[0]))
	for wl := range sides[0] {
		if sides[1][wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		base, head := sides[0][wl], sides[1][wl]
		var seeds []int64
		for s := range base {
			if _, ok := head[s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		fmt.Fprintf(stdout, "%s: %d pairs (base %s; head %s)\n", wl, len(seeds),
			machine(base), machine(head))
		fmt.Fprintf(stdout, "  %-18s %-30s %-30s %5s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
		for _, b := range def.EndToEnd {
			var a, h []float64
			for _, s := range seeds {
				ma, okA := base[s].final.Metrics[b.Name]
				mh, okH := head[s].final.Metrics[b.Name]
				if okA && okH {
					a, h = append(a, ma.Value), append(h, mh.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			v := judge(a, h, b)
			fmt.Fprintf(stdout, "  %-18s %-30s %-30s %5.2f  %s\n", b.Name, quartileText(a), quartileText(h), v.wins, v.verdict)
		}
	}
	return 0
}

func quartileText(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

func machine(runs map[int64]runOutput) string {
	for _, r := range runs {
		return fmt.Sprintf("%s, GOMAXPROCS %d, %s, commit %s", r.stamp.CPU, r.stamp.GOMAXPROCS, r.stamp.Go, r.stamp.Commit)
	}
	return "none"
}

// deterministic names the end-to-end metrics that repeat exactly for a
// given workload and seed: they come from the sequential references, not
// from the clock. Any paired increase of one is a regression, however
// small against the bound, which only has to cover the spread between
// seeds.
var deterministic = map[string]bool{"bist_overhead_pct": true}

type verdict struct {
	wins    float64 // share of pairs the head side wins; ties count for neither
	verdict string
}

// judge applies the A/B rule: HEAD improved when it wins at least nine
// tenths of the pairs and its median differs from BASE's by more than
// BASE's interquartile spread; it regressed when its median is worse than
// BASE's by more than the metric's bound; where BASE's own spread is wider
// than the bound the outcome is unresolved unless every HEAD run beats
// every BASE run; otherwise it is within the bound. A deterministic
// metric regresses as soon as one pair has HEAD worse than BASE.
func judge(base, head []float64, b boundSpec) verdict {
	better := func(x, y float64) bool { // x better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, losses := 0, 0
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		} else if better(base[i], head[i]) {
			losses++
		}
	}
	v := verdict{wins: float64(wins) / float64(len(base))}
	q1, mb, q3 := quartiles(base)
	_, mh, _ := quartiles(head)
	worse := (mh - mb) / mb
	if b.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range head {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case deterministic[b.Name] && losses > 0:
		v.verdict = "regressed"
	case better(mh, mb) && v.wins >= 0.9 && math.Abs(mh-mb) > q3-q1:
		v.verdict = "improved"
	case allBetter:
		v.verdict = "improved"
	case (q3-q1)/mb > b.Bound:
		v.verdict = "unresolved"
	case worse > b.Bound:
		v.verdict = "regressed"
	default:
		v.verdict = "within-bound"
	}
	return v
}

// loadRuns reads saved outputs (a file or every file of a directory) and
// indexes the valid ones by workload and seed.
func loadRuns(path string) (map[string]map[int64]runOutput, int, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, 0, err
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, 0, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	out := map[string]map[int64]runOutput{}
	skipped := 0
	for _, f := range files {
		r, ok, err := readRun(f)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			skipped++
			continue
		}
		if out[r.stamp.Workload] == nil {
			out[r.stamp.Workload] = map[int64]runOutput{}
		}
		out[r.stamp.Workload][r.stamp.Seed] = r
	}
	return out, skipped, nil
}

// readRun parses one saved output. It reports ok=false for an output that
// is traced, invalid, incorrect or has no final line.
func readRun(path string) (runOutput, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, false, err
	}
	defer f.Close()
	var r runOutput
	var last string
	stamped := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, stampPrefix); ok {
			stamped = json.Unmarshal([]byte(s), &r.stamp) == nil
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return runOutput{}, false, fmt.Errorf("%s: %w", path, err)
	}
	if !stamped || json.Unmarshal([]byte(last), &r.final) != nil {
		return r, false, nil
	}
	return r, r.stamp.Valid && r.stamp.Trace == 0 && r.final.Correct, nil
}
