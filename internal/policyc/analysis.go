package policyc

import (
	"fmt"

	"repro/internal/ir"
)

// inlineCostBudget is the worst-case cycle cost above which a policy
// no longer runs a decision in one tick, and the slice an isolated
// policy runs per tick instead. The bar is deliberately low: a decision
// runs inside the commit window the epoch fights to keep short, so only
// small, loop-free strategies finish in one go.
const inlineCostBudget = 4096

// isolatedFuel is the per-decision fuel budget for isolated policies,
// whose worst-case cost is unbounded (call cycles) or over budget. Big
// enough for any sane strategy, small enough that a runaway policy
// dies within 256 slices.
const isolatedFuel = 1 << 20

// externCost is the budgeted cost of one set/scale/hold extern body,
// on top of the OpCall dispatch cost the VM already charges.
const externCost = 20

// analyze is the gopherjs-style classification pass (see the
// blocking/flattening analysis in compiler/internal/analysis): walk
// the aspect call graph from the entry, propagate the "needs
// isolation" colour (dynamic applies, recursion), and bound the
// worst-case cycle cost of one decision. Compiled policies are
// structurally loop-free (all jumps are forward), so a straight sum
// over instruction costs with callees inlined is a true upper bound.
func analyze(p *Program) {
	a := &analyzer{prog: p, cost: make(map[string]int64), state: make(map[string]int)}
	cost, cyclic := a.aspectCost(p.AspectName)

	switch {
	case cyclic != "":
		p.Class = Isolated
		p.ClassReason = fmt.Sprintf("aspect call cycle through %s: unbounded decision cost", cyclic)
		p.WorstCost = 0
		p.Fuel = isolatedFuel
	case a.dynamicReachable(p.AspectName, make(map[string]bool)):
		p.Class = Isolated
		p.ClassReason = "apply dynamic requires runtime isolation"
		p.WorstCost = cost
		p.Fuel = isolatedFuel
	case cost > inlineCostBudget:
		p.Class = Isolated
		p.ClassReason = fmt.Sprintf("worst-case %d cycles exceeds inline budget %d", cost, inlineCostBudget)
		p.WorstCost = cost
		p.Fuel = isolatedFuel
	default:
		p.Class = Inline
		p.ClassReason = fmt.Sprintf("pure and bounded: worst-case %d cycles", cost)
		p.WorstCost = cost
		// Double the bound plus slack: the fuel check is a backstop,
		// not a second copy of the analysis.
		p.Fuel = cost*2 + 256
	}
}

type analyzer struct {
	prog  *Program
	cost  map[string]int64
	state map[string]int // 0 unvisited, 1 on stack, 2 done
}

// aspectCost returns the worst-case cycle cost of one invocation of
// the named aspect, with callees inlined. The second return names an
// aspect on a call cycle, or "" when the graph is acyclic from here.
func (a *analyzer) aspectCost(name string) (int64, string) {
	switch a.state[name] {
	case 1:
		return 0, name // back edge: recursion
	case 2:
		return a.cost[name], ""
	}
	a.state[name] = 1
	defer func() { a.state[name] = 2 }()

	fn := a.prog.Module.Funcs[entryPrefix+name]
	if fn == nil {
		return 0, ""
	}
	var total int64
	for _, in := range fn.Code {
		total += in.Op.Cost()
		if in.Op == ir.OpCall {
			switch in.Sym {
			case externSet, externScale, externHold:
				total += externCost
			}
		}
	}
	for _, e := range a.prog.calls[name] {
		c, cyc := a.aspectCost(e.callee)
		if cyc != "" {
			a.cost[name] = total
			return total, cyc
		}
		total += c
	}
	a.cost[name] = total
	return total, ""
}

// dynamicReachable reports whether any aspect reachable from name
// contains an `apply dynamic`.
func (a *analyzer) dynamicReachable(name string, seen map[string]bool) bool {
	if seen[name] {
		return false
	}
	seen[name] = true
	if a.prog.dynamic[name] {
		return true
	}
	for _, e := range a.prog.calls[name] {
		if a.dynamicReachable(e.callee, seen) {
			return true
		}
	}
	return false
}
