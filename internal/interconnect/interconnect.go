// Package interconnect binds data transfers to module ports and
// multiplexers (Section IV of the paper). For every module the input
// registers are partitioned into IR^L, IR^R and IR^LR (connected to the
// left, right or both input ports). Minimum connectivity minimizes
// |IR^LR| (Pangrle); the testability-weighted mode additionally prefers,
// among minimum-mux solutions, those that place registers with high
// sharing degrees on both ports, improving their chances of being chosen
// as TPGs.
package interconnect

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// PadSource is the prefix of source identifiers that denote input pads
// (port-fed inputs) rather than registers.
const PadSource = "in:"

// IsPad reports whether a source identifier denotes an input pad.
func IsPad(src string) bool { return strings.HasPrefix(src, PadSource) }

// SourceOf returns the physical source feeding the value of a variable: a
// register name, or an input-pad identifier for port-fed inputs.
func SourceOf(rb *regassign.Binding, g *dfg.Graph, varName string) string {
	if v := g.Var(varName); v != nil && v.IsPort {
		return PadSource + varName
	}
	return rb.RegisterOf(varName)
}

// Binding records, per operation, whether its two operands are swapped
// with respect to the DFG argument order when wired to the module's left
// and right ports.
type Binding struct {
	Swapped map[string]bool
}

// OperandSources returns the (left, right) source identifiers for an op
// under this binding.
func (ib *Binding) OperandSources(g *dfg.Graph, rb *regassign.Binding, op *dfg.Op) (left, right string) {
	a := SourceOf(rb, g, op.Args[0])
	b := a
	if op.Binary() {
		b = SourceOf(rb, g, op.Args[1])
	}
	if ib.Swapped[op.Name] {
		return b, a
	}
	return a, b
}

// Bind chooses operand orientations. For each module the commutative
// instances are oriented by exhaustive search (the per-module instance
// count is small) minimizing, in order: total mux inputs over the two
// ports, |IR^LR|, and — when sh is non-nil — maximizing the summed
// sharing degree of registers connected to both ports. Non-commutative
// instances keep their argument order. Ties keep the orientation an
// ascending scan of swap masks (bit i swaps the module's i-th free
// instance) reaches first.
func Bind(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) (*Binding, error) {
	ib := &Binding{Swapped: make(map[string]bool)}
	o := newOrienter(g, mb, rb, sh)
	for _, m := range mb.Modules {
		if err := o.bindModule(m, ib); err != nil {
			return nil, err
		}
	}
	return ib, nil
}

// maxFree caps the free instances of one module: the orientation search
// visits all 2^k swap masks of its k free instances.
const maxFree = 20

// score ranks one orientation of a module's instances.
type score struct {
	muxInputs int // distinct left-port plus distinct right-port sources
	lrCount   int // sources on both ports (|IR^LR|, pads included)
	lrSD      int // summed sharing degree of those sources: higher is better
}

func (x score) better(y score) bool {
	if x.muxInputs != y.muxInputs {
		return x.muxInputs < y.muxInputs
	}
	if x.lrCount != y.lrCount {
		return x.lrCount < y.lrCount
	}
	return x.lrSD > y.lrSD
}

// srcKey identifies an operand source without building its string form:
// a register by name, or (pad) the input pad of a port variable.
type srcKey struct {
	name string
	pad  bool
}

// The two input ports, indexing source.on.
const (
	portL = 0
	portR = 1
)

// source is one interned operand source of the module being oriented.
type source struct {
	key    srcKey
	weight int      // SD of its register (0 for pads or nil sh), -1 until needed
	on     [2]int32 // instances wiring it to each port
}

// flip is a free instance: a commutative binary op with distinct operand
// sources a and b (interned ids), wired (a, b) when unswapped.
type flip struct {
	op   string
	a, b int32
}

// orienter is the orientation search of one Bind call. Its buffers are
// sized to the largest module and reused by every module, so the search
// allocates nothing per module or per mask.
type orienter struct {
	g  *dfg.Graph
	rb *regassign.Binding
	sh *regassign.Sharing

	ids  map[srcKey]int32 // the current module's interned sources
	srcs []source
	free []flip
	s    score // score of the current orientation, kept up to date
}

func newOrienter(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) *orienter {
	maxOps := 0
	for _, m := range mb.Modules {
		maxOps = max(maxOps, len(m.Ops))
	}
	return &orienter{
		g: g, rb: rb, sh: sh,
		ids:  make(map[srcKey]int32, 2*maxOps),
		srcs: make([]source, 0, 2*maxOps),
		free: make([]flip, 0, maxOps),
	}
}

// bindModule orients the free instances of module m. It wires every
// instance unswapped, then walks all 2^k swap masks in Gray-code order:
// step i flips free instance TrailingZeros(i), four O(1) count updates.
// Ties keep the lowest mask, which is the one an ascending scan finds
// first.
func (o *orienter) bindModule(m *modassign.Module, ib *Binding) error {
	clear(o.ids)
	o.srcs, o.free, o.s = o.srcs[:0], o.free[:0], score{}
	for _, opName := range m.Ops {
		op := o.g.Op(opName)
		a := o.source(op.Args[0])
		b := a
		if op.Binary() {
			b = o.source(op.Args[1])
		}
		if a < 0 || b < 0 {
			return fmt.Errorf("interconnect: op %s has operand with no register", opName)
		}
		o.add(portL, a)
		if op.Binary() {
			o.add(portR, b)
			if op.Kind.Commutative() && a != b {
				o.free = append(o.free, flip{op: opName, a: a, b: b})
			}
		}
	}
	if len(o.free) > maxFree {
		return fmt.Errorf("interconnect: module %s has %d free instances (search cap exceeded)", m.Name, len(o.free))
	}
	best, bestMask, mask := o.s, 0, 0
	for i := 1; i < 1<<len(o.free); i++ {
		bit := bits.TrailingZeros(uint(i))
		f := o.free[bit]
		l, r := f.a, f.b
		if mask&(1<<bit) != 0 {
			l, r = r, l
		}
		o.remove(portL, l)
		o.remove(portR, r)
		o.add(portL, r)
		o.add(portR, l)
		mask ^= 1 << bit
		if o.s.better(best) || (o.s == best && mask < bestMask) {
			best, bestMask = o.s, mask
		}
	}
	for bit, f := range o.free {
		if bestMask&(1<<bit) != 0 {
			ib.Swapped[f.op] = true
		}
	}
	return nil
}

// source returns the interned id of the source feeding variable v, or -1
// when v is neither a port nor bound to a register (SourceOf's "").
func (o *orienter) source(v string) int32 {
	key := srcKey{name: v, pad: true}
	if gv := o.g.Var(v); gv == nil || !gv.IsPort {
		if key = (srcKey{name: o.rb.RegisterOf(v)}); key.name == "" {
			return -1
		}
	}
	if id, ok := o.ids[key]; ok {
		return id
	}
	w := 0
	if o.sh != nil && !key.pad {
		w = -1
	}
	id := int32(len(o.srcs))
	o.ids[key] = id
	o.srcs = append(o.srcs, source{key: key, weight: w})
	return id
}

// add wires one more instance of source id to port. Its first instance
// there costs a mux input, and if the other port already sees the
// source it joins IR^LR.
func (o *orienter) add(port int, id int32) {
	s := &o.srcs[id]
	if s.on[port]++; s.on[port] == 1 {
		o.shift(s, port, 1)
	}
}

// remove is add's inverse.
func (o *orienter) remove(port int, id int32) {
	s := &o.srcs[id]
	if s.on[port]--; s.on[port] == 0 {
		o.shift(s, port, -1)
	}
}

func (o *orienter) shift(s *source, port, d int) {
	o.s.muxInputs += d
	if s.on[1-port] > 0 {
		o.s.lrCount += d
		o.s.lrSD += d * o.weightOf(s)
	}
}

// weightOf returns the sharing degree s adds to lrSD, computing it on
// the source's first entry to IR^LR: many sources never get there.
func (o *orienter) weightOf(s *source) int {
	if s.weight < 0 {
		s.weight = 0
		if r := o.rb.Register(s.key.name); r != nil {
			s.weight = o.sh.SDReg(r.Vars)
		}
	}
	return s.weight
}

// PortSources returns the distinct sources wired to the left and right
// input ports of a module, sorted.
func PortSources(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *Binding, module string) (left, right []string) {
	m := mb.Module(module)
	if m == nil {
		return nil, nil
	}
	ls := make(map[string]bool)
	rs := make(map[string]bool)
	for _, opName := range m.Ops {
		op := g.Op(opName)
		l, r := ib.OperandSources(g, rb, op)
		ls[l] = true
		if op.Binary() {
			rs[r] = true
		}
	}
	return sortedKeys(ls), sortedKeys(rs)
}

// IRPartition is the partition of a module's input registers into the
// sets connected to the left port only, the right port only, or both.
type IRPartition struct {
	L, R, LR []string
}

// InputRegisterPartition computes IR^L, IR^R and IR^LR for a module
// (pads excluded: only registers participate in the partition).
func InputRegisterPartition(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *Binding, module string) IRPartition {
	return partition(PortSources(g, mb, rb, ib, module))
}

// partition merges a module's sorted left and right port sources into
// IR^L, IR^R and IR^LR, dropping pads.
func partition(left, right []string) IRPartition {
	var p IRPartition
	put := func(set *[]string, s string) {
		if !IsPad(s) {
			*set = append(*set, s)
		}
	}
	i, j := 0, 0
	for i < len(left) || j < len(right) {
		switch {
		case j == len(right) || i < len(left) && left[i] < right[j]:
			put(&p.L, left[i])
			i++
		case i == len(left) || right[j] < left[i]:
			put(&p.R, right[j])
			j++
		default:
			put(&p.LR, left[i])
			i++
			j++
		}
	}
	return p
}

// RegisterSources returns the distinct sources that load each register:
// producing modules of its variables plus input pads for primary-input
// variables, sorted. Keyed by register name.
func RegisterSources(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding) map[string][]string {
	out := make(map[string][]string, len(rb.Registers))
	for _, r := range rb.Registers {
		set := make(map[string]bool)
		for _, vn := range r.Vars {
			v := g.Var(vn)
			if v.IsInput {
				set[PadSource+vn] = true
			} else {
				set[mb.ModuleOf(v.Def).Name] = true
			}
		}
		out[r.Name] = sortedKeys(set)
	}
	return out
}

// Stats summarizes the interconnect of a bound data path.
type Stats struct {
	MuxCount  int // ports (module inputs + register inputs) with ≥2 sources
	MuxInputs int // total extra mux inputs: Σ max(0, sources-1)
	LRTotal   int // Σ over modules of |IR^LR|
}

// Measure computes interconnect statistics.
func Measure(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *Binding) Stats {
	var st Stats
	count := func(n int) {
		if n >= 2 {
			st.MuxCount++
			st.MuxInputs += n - 1
		}
	}
	for _, m := range mb.Modules {
		left, right := PortSources(g, mb, rb, ib, m.Name)
		count(len(left))
		count(len(right))
		st.LRTotal += len(partition(left, right).LR)
	}
	for _, srcs := range RegisterSources(g, mb, rb) {
		count(len(srcs))
	}
	return st
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
