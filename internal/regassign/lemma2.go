package regassign

import (
	"fmt"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Forced records a register assignment situation that requires a CBILBO
// in every BIST embedding of a module (Lemma 2).
type Forced struct {
	Module string
	Regs   []int // indices into the register list: 1 entry (case i) or 2 (case ii; either may be the CBILBO)
	CaseII bool
}

func (f Forced) String() string {
	if f.CaseII {
		return fmt.Sprintf("%s: case(ii) regs %v", f.Module, f.Regs)
	}
	return fmt.Sprintf("%s: case(i) reg %v", f.Module, f.Regs)
}

// ForcedCBILBOs evaluates Lemma 2 on a (possibly partial) register
// assignment, given as a list of variable sets. For each module it
// reports whether every BIST embedding requires a CBILBO:
//
//	case (i):  some register holds ALL output variables of the module and
//	           at least one operand of EVERY instance of the module;
//	case (ii): two registers together hold all output variables, each
//	           holds some output variable and at least one operand of
//	           every instance (either may be made the CBILBO).
//
// Variables not yet assigned to any register make the conditions
// unsatisfiable for the sets they belong to, which is the correct
// conservative behaviour during incremental binding.
//
// The characterization is exact for single-instance modules under the
// paper's operator model: binary operators whose two operands are
// distinct variables, followed by a minimum-connectivity interconnect
// binding. Outside that model it errs in both directions, always
// conservatively for the binder's avoidance heuristic: an instance
// reading the same variable on both ports (x op x) welds both ports to
// one register and can force a CBILBO these conditions do not predict,
// while on a module with several instances the other instances' mux
// inputs can open a head pair that avoids the case-(i) register, so a
// predicted CBILBO may be escapable at the netlist level (each instance
// may present that register on a different port).
func ForcedCBILBOs(g *dfg.Graph, mb *modassign.Binding, regs [][]string) []Forced {
	var out []Forced
	for _, m := range mb.Modules {
		f, ok := forcedForModule(g, mb, m.Name, regs)
		if ok {
			out = append(out, f)
		}
	}
	return out
}

// forcedForModule checks Lemma 2 for one module. If both a case-(i)
// register and a case-(ii) pair exist, case (i) is reported (it pins a
// specific register).
func forcedForModule(g *dfg.Graph, mb *modassign.Binding, module string, regs [][]string) (Forced, bool) {
	outVars := mb.OutputVarSet(g, module)
	instOps := mb.InstanceOperands(g, module)
	if len(outVars) == 0 || len(instOps) == 0 {
		return Forced{}, false
	}
	outSet := make(map[string]bool, len(outVars))
	for _, v := range outVars {
		outSet[v] = true
	}
	// Per register: which output vars it holds; whether it hits every
	// instance's operand set.
	type regInfo struct {
		outHeld   map[string]bool
		hitsAll   bool
		holdsSome bool
	}
	infos := make([]regInfo, len(regs))
	for i, r := range regs {
		in := make(map[string]bool, len(r))
		for _, v := range r {
			in[v] = true
		}
		ri := regInfo{outHeld: make(map[string]bool)}
		for _, v := range r {
			if outSet[v] {
				ri.outHeld[v] = true
				ri.holdsSome = true
			}
		}
		ri.hitsAll = true
		for _, inst := range instOps {
			hit := false
			for _, a := range inst {
				if in[a] {
					hit = true
					break
				}
			}
			if !hit {
				ri.hitsAll = false
				break
			}
		}
		infos[i] = ri
	}
	holdsAllOut := func(held map[string]bool) bool {
		for _, v := range outVars {
			if !held[v] {
				return false
			}
		}
		return true
	}
	// Case (i).
	for i, ri := range infos {
		if ri.holdsSome && ri.hitsAll && holdsAllOut(ri.outHeld) {
			return Forced{Module: module, Regs: []int{i}}, true
		}
	}
	// Case (ii): pair of registers, each holding a proper nonempty part of
	// O_M, union covering O_M, both hitting every instance.
	for i := range infos {
		if !infos[i].holdsSome || !infos[i].hitsAll || holdsAllOut(infos[i].outHeld) {
			continue
		}
		for j := i + 1; j < len(infos); j++ {
			if !infos[j].holdsSome || !infos[j].hitsAll || holdsAllOut(infos[j].outHeld) {
				continue
			}
			union := make(map[string]bool, len(outVars))
			for v := range infos[i].outHeld {
				union[v] = true
			}
			for v := range infos[j].outHeld {
				union[v] = true
			}
			if holdsAllOut(union) {
				return Forced{Module: module, Regs: []int{i, j}, CaseII: true}, true
			}
		}
	}
	return Forced{}, false
}
