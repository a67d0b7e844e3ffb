package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"bistpath"
	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
)

// design is one generated input, in the form a client sends it: the DFG
// text, the op→module map and the port-fed inputs, which the text format
// does not carry. Paper benchmarks also record their name, which is how
// a daemon client submits them.
type design struct {
	name  string
	text  string
	mods  map[string]string
	ports []string
	bench string
	g     *dfg.Graph // the generator's graph, for deriving edits
}

// parse turns the design's text into the DFG the program synthesizes.
func (d *design) parse() (*bistpath.DFG, error) {
	g, err := bistpath.ParseDFG(d.text)
	if err != nil {
		return nil, err
	}
	if len(d.ports) > 0 {
		if err := g.MarkPortInput(d.ports...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func fromGraph(name string, g *dfg.Graph, mods map[string]string, bench string) *design {
	g = g.Clone()
	g.Name = name
	var ports []string
	for _, v := range g.Vars() {
		if v.IsPort {
			ports = append(ports, v.Name)
		}
	}
	return &design{name: name, text: g.Text(), mods: mods, ports: ports, bench: bench, g: g}
}

// paperDesigns returns the paper's five evaluation benchmarks (Table I).
func paperDesigns() []*design {
	var out []*design
	for _, b := range benchdata.All() {
		out = append(out, fromGraph(b.Name, b.Graph, b.OpModule, b.Name))
	}
	return out
}

// generate builds one random design: kind "sweep" draws a RandomDesign
// sweep shape, any other kind names a benchdata preset (s, m, l, xl).
func generate(kind string, seed int64, name string) (*design, error) {
	cfg := benchdata.SweepConfig(seed)
	if kind != "sweep" {
		var ok bool
		if cfg, ok = benchdata.Preset(kind, seed); !ok {
			return nil, fmt.Errorf("unknown design kind %q", kind)
		}
	}
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", kind, seed, err)
	}
	mods := make(map[string]string)
	for _, m := range mb.Modules {
		for _, op := range m.Ops {
			mods[op] = m.Name
		}
	}
	return fromGraph(name, g, mods, ""), nil
}

// share is one design kind's weight in a drawn pool.
type share struct {
	kind   string
	weight int
}

// drawPool draws n designs whose texts differ from each other and from
// every body already in seen (design names aside), so a pool never asks
// the cache the same question twice. Kinds are drawn by weight; design
// seeds come from rng.
func drawPool(rng *rand.Rand, n int, mix []share, prefix string, seen map[string]bool) ([]*design, error) {
	total := 0
	for _, s := range mix {
		total += s.weight
	}
	out := make([]*design, 0, n)
	for len(out) < n {
		pick, kind := rng.Intn(total), ""
		for _, s := range mix {
			if pick < s.weight {
				kind = s.kind
				break
			}
			pick -= s.weight
		}
		d, err := generate(kind, rng.Int63(), fmt.Sprintf("%s%d", prefix, len(out)))
		if err != nil {
			return nil, err
		}
		out = addDistinct(out, d, seen)
	}
	return out, nil
}

// fixedPool returns the first n distinct designs of one kind, generated
// from seeds 1, 2, 3, ... independently of the workload seed.
func fixedPool(kind string, n int, prefix string, seen map[string]bool) ([]*design, error) {
	out := make([]*design, 0, n)
	for seed := int64(1); len(out) < n; seed++ {
		d, err := generate(kind, seed, fmt.Sprintf("%s%d", prefix, seed))
		if err != nil {
			return nil, err
		}
		out = addDistinct(out, d, seen)
	}
	return out, nil
}

// addDistinct appends d unless a design with the same text (name aside)
// is already in seen.
func addDistinct(out []*design, d *design, seen map[string]bool) []*design {
	body := d.text[strings.IndexByte(d.text, '\n')+1:]
	if seen[body] {
		return out
	}
	seen[body] = true
	return append(out, d)
}

// edit is one small design edit that keeps the design valid, applied in
// either direction: forward moves op to step to (or marks input v as
// port-fed), backward restores it.
type edit struct {
	kind     string // "set_step" or "retime_port"
	op       string
	from, to int
	v        string
}

func (e *edit) String() string {
	if e.kind == "set_step" {
		return fmt.Sprintf("set_step %s %d→%d", e.op, e.from, e.to)
	}
	return "retime_port " + e.v
}

// apply performs the edit on a session, forward or back.
func (e *edit) apply(ss *bistpath.Session, forward bool) error {
	if e.kind == "set_step" {
		step := e.from
		if forward {
			step = e.to
		}
		return ss.SetStep(e.op, step)
	}
	return ss.RetimePort(e.v, forward)
}

// patchBody renders the edit as a PATCH /v1/jobs/{id} body that sets the
// edited state absolutely, so the result does not depend on the order in
// which concurrent PATCHes of one job lineage are applied.
func (e *edit) patchBody(forward bool) string {
	if e.kind == "set_step" {
		step := e.from
		if forward {
			step = e.to
		}
		return fmt.Sprintf(`{"edits":[{"kind":"set_step","op":%q,"step":%d}]}`, e.op, step)
	}
	return fmt.Sprintf(`{"edits":[{"kind":"retime_port","var":%q,"port":%t}]}`, e.v, forward)
}

// edited returns the design with the edit applied forward, derived from
// the text independently of the Session path it checks.
func (e *edit) edited(d *design) *design {
	out := *d
	out.name, out.bench = d.name+"+edit", "" // no longer the paper benchmark
	if e.kind == "retime_port" {
		out.ports = append(append([]string(nil), d.ports...), e.v)
		return &out
	}
	lines := strings.Split(d.text, "\n")
	prefix := "op " + e.op + " "
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = l[:strings.LastIndexByte(l, '@')+1] + strconv.Itoa(e.to)
		}
	}
	out.text = strings.Join(lines, "\n")
	return &out
}

// candidateEdits lists the rescheduling edits that keep d's schedule
// consistent (operands ready, consumers later, the op's module free at
// the new step), followed by port retimings of register-allocated inputs
// that are not also outputs.
// Whether an edit also keeps the design synthesizable is for the caller
// to check.
func candidateEdits(d *design) []*edit {
	g := d.g
	var out []*edit
	ops := g.Ops()
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	for _, o := range ops {
		earliest, latest := 1, g.NumSteps()
		for _, a := range o.Args {
			if def := g.Var(a).Def; def != "" {
				earliest = max(earliest, g.Op(def).Step+1)
			}
		}
		for _, u := range g.Var(o.Result).Uses {
			latest = min(latest, g.Op(u).Step-1)
		}
		for s := earliest; s <= latest; s++ {
			if s == o.Step || moduleBusy(g, d.mods, o, s) {
				continue
			}
			out = append(out, &edit{kind: "set_step", op: o.Name, from: o.Step, to: s})
		}
	}
	// An input that is also a primary output is never made port-fed:
	// synthesis accepts that design, but its data path fails
	// Result.Verify ("output bound to no register"), a defect of the
	// program, not of the edit. TestRetimedOutputInputStillFailsVerify
	// pins the defect and fails once it is fixed; then drop this filter.
	for _, in := range g.Inputs() {
		if v := g.Var(in); !v.IsPort && !v.IsOutput {
			out = append(out, &edit{kind: "retime_port", v: in})
		}
	}
	return out
}

func moduleBusy(g *dfg.Graph, mods map[string]string, o *dfg.Op, step int) bool {
	for _, other := range g.OpsAtStep(step) {
		if other.Name != o.Name && mods[other.Name] == mods[o.Name] {
			return true
		}
	}
	return false
}
