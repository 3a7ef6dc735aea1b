// SAT escalation tier: when a backtrack-limited PODEM search gives up on a
// fault (LimitExceeded), the fault's support/output cone is Tseitin-encoded
// into CNF and handed to the deterministic CDCL solver in internal/sat for a
// definitive verdict — FoundTest with a witness vector, or ProvenImpossible.
// The encoding mirrors podem.go's injection semantics model by model, so the
// escalator answers exactly the question the search was asking.
//
// Encoding sketch. Two copies of the relevant circuit slice share variables
// outside the fault-effect cone:
//
//   - good variables cover the transitive fanin closure of the cone's gate
//     supports, the excitation/justification condition nets, and (for
//     bridges) the aggressor — every net whose good value can influence
//     detection. Each driven net gets one consistency clause per input
//     assignment of its gate's truth table (<= 2^6 clauses of <= 7 literals).
//   - faulty variables cover only the cone (the fault site and its
//     transitive fanout); outside the cone faulty equals good, so cone gates
//     read side inputs directly from the good variables.
//   - the site's faulty value carries the injection: a stem stuck-at is a
//     unit clause, a fanout-branch fault re-evaluates its gate with the
//     branch pin pinned, a bridge equates the victim's faulty value with the
//     aggressor's good value, and a cell-aware host complements its output
//     (its activation condition is imposed as unit clauses, exactly like
//     PODEM's excitation conditions).
//   - one difference variable per cone primary output is constrained to
//     imply good != faulty there, and the detection clause demands at least
//     one difference. A cone that reaches no primary output is undetectable
//     without solving.
package atpg

import (
	"math/rand"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/sat"
)

// SATStats accounts for the solver work one escalation spent.
type SATStats struct {
	// Solves counts CDCL runs (a multi-instance fault — transition,
	// bridge, cell-aware — may need several).
	Solves int
	// Conflicts / Decisions / Propagations total the solver's search
	// effort across those runs.
	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// Escalator encodes faults over one circuit and resolves them with the CDCL
// solver. It is stateless across faults (each Resolve builds fresh solver
// instances), so one escalator may be shared by concurrent workers.
type Escalator struct {
	c *netlist.Circuit
}

// NewEscalator prepares an escalation tier over c.
func NewEscalator(c *netlist.Circuit) *Escalator {
	return &Escalator{c: c}
}

// Resolve runs the complete SAT escalation for fault f and returns a
// definitive FoundTest (with a witness; unconstrained primary inputs are
// filled from rng) or ProvenImpossible — never LimitExceeded: the solver is
// complete and has no budget. The verdict and witness are a pure function of
// (circuit, fault, rng stream), independent of worker scheduling.
func (e *Escalator) Resolve(f *fault.Fault, rng *rand.Rand) (SearchOutcome, *TestVec, SATStats) {
	st := SATStats{}
	switch f.Model {
	case fault.StuckAt:
		if vec, ok := e.solveStuckAt(f, &st, rng); ok {
			return FoundTest, &TestVec{Vec: vec}, st
		}
		return ProvenImpossible, nil, st

	case fault.Transition:
		// Launch: detect stuck-at-Value at the site; init: justify Value.
		launch := &fault.Fault{Model: fault.StuckAt, Net: f.Net,
			BranchGate: f.BranchGate, BranchPin: f.BranchPin, Value: f.Value}
		vec, ok := e.solveStuckAt(launch, &st, rng)
		if !ok {
			return ProvenImpossible, nil, st
		}
		init, ok2 := e.solveJustify([]condition{{net: f.Net, val: f.Value}}, &st, rng)
		if !ok2 {
			return ProvenImpossible, nil, st
		}
		return FoundTest, &TestVec{Init: init, Vec: vec}, st

	case fault.Bridge:
		for _, va := range []uint8{1, 0} {
			inj := injection{bridgeVictim: f.Net, bridgeSrc: f.Other}
			conds := []condition{
				{net: f.Net, val: va},
				{net: f.Other, val: va ^ 1},
			}
			if vec, ok := e.solveDetect(inj, conds, &st, rng); ok {
				return FoundTest, &TestVec{Vec: vec}, st
			}
		}
		return ProvenImpossible, nil, st

	case fault.CellAware:
		return e.resolveCellAware(f, &st, rng)
	}
	return ProvenImpossible, nil, st
}

// solveStuckAt encodes a stem or fanout-branch stuck-at detection instance.
func (e *Escalator) solveStuckAt(f *fault.Fault, st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	inj := injection{}
	if f.BranchGate != nil {
		inj.branchGate = f.BranchGate
		inj.branchPin = f.BranchPin
		inj.branchVal = f.Value
	} else {
		inj.stemNet = f.Net
		inj.stemVal = f.Value
	}
	conds := []condition{{net: f.Net, val: f.Value ^ 1}}
	return e.solveDetect(inj, conds, st, rng)
}

// hostConds returns the activation conditions of a cell-aware host
// assignment: every gate input at its bit of asg.
func hostConds(g *netlist.Gate, asg uint) []condition {
	conds := make([]condition, 0, len(g.Fanin))
	for i, in := range g.Fanin {
		conds = append(conds, condition{net: in, val: uint8(asg >> uint(i) & 1)})
	}
	return conds
}

// resolveCellAware mirrors podem.generateCellAware: every static activating
// assignment, then every dynamic (init, launch) pair, each resolved
// completely.
func (e *Escalator) resolveCellAware(f *fault.Fault, st *SATStats, rng *rand.Rand) (SearchOutcome, *TestVec, SATStats) {
	g := f.Gate
	beh := f.Behavior
	n := uint(1) << uint(beh.Inputs)

	for a := uint(0); a < n; a++ {
		if beh.StaticMask>>a&1 == 0 {
			continue
		}
		if vec, ok := e.solveDetect(injection{hostGate: g, hostAsg: a}, hostConds(g, a), st, rng); ok {
			return FoundTest, &TestVec{Vec: vec}, *st
		}
	}
	if len(beh.PairMask) == 0 {
		return ProvenImpossible, nil, *st
	}
	for a2 := uint(0); a2 < n; a2++ {
		anyPair := false
		for a1 := uint(0); a1 < n; a1++ {
			if uint(len(beh.PairMask)) > a1 && beh.PairMask[a1]>>a2&1 == 1 {
				anyPair = true
				break
			}
		}
		if !anyPair {
			continue
		}
		vec, ok := e.solveDetect(injection{hostGate: g, hostAsg: a2}, hostConds(g, a2), st, rng)
		if !ok {
			continue
		}
		for a1 := uint(0); a1 < n; a1++ {
			if uint(len(beh.PairMask)) <= a1 || beh.PairMask[a1]>>a2&1 == 0 {
				continue
			}
			if init, ok2 := e.solveJustify(hostConds(g, a1), st, rng); ok2 {
				return FoundTest, &TestVec{Init: init, Vec: vec}, *st
			}
		}
	}
	return ProvenImpossible, nil, *st
}

// cnfInst is one CNF instance under construction: the variable maps from
// nets to solver variables and the injection being encoded.
type cnfInst struct {
	c    *netlist.Circuit
	s    *sat.Solver
	gvar []int32 // per net: good-circuit variable, -1 when absent
	fvar []int32 // per net: faulty-circuit variable (cone only), -1 when absent
	cone []bool
}

// siteOf returns the net where an injection's fault effect originates
// (mirrors podem.siteNet).
func siteOf(inj injection) *netlist.Net {
	switch {
	case inj.stemNet != nil:
		return inj.stemNet
	case inj.bridgeVictim != nil:
		return inj.bridgeVictim
	case inj.branchGate != nil:
		return inj.branchGate.Out
	case inj.hostGate != nil:
		return inj.hostGate.Out
	}
	return nil
}

// solveDetect builds and solves one detection instance. It returns the
// witness vector and true on SAT; false is a proof that no test detects the
// injected fault under the given conditions.
func (e *Escalator) solveDetect(inj injection, conds []condition, st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	c := e.c
	site := siteOf(inj)
	if site == nil {
		return nil, false
	}

	// Fault-effect cone: the site and its transitive fanout.
	cone := make([]bool, len(c.Nets))
	cone[site.ID] = true
	queue := []*netlist.Net{site}
	anyPO := false
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.IsPO {
			anyPO = true
		}
		for _, pin := range n.Fanout {
			out := pin.Gate.Out
			if !cone[out.ID] {
				cone[out.ID] = true
				queue = append(queue, out)
			}
		}
	}
	if !anyPO {
		return nil, false // effect cannot reach an output: undetectable
	}

	// Good support: condition nets, the aggressor, the site, every cone
	// gate's fanins, and every cone primary output (for the difference
	// clauses), closed under transitive fanin.
	need := make([]bool, len(c.Nets))
	var stack []*netlist.Net
	mark := func(n *netlist.Net) {
		if !need[n.ID] {
			need[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, cd := range conds {
		mark(cd.net)
	}
	if inj.bridgeSrc != nil {
		mark(inj.bridgeSrc)
	}
	mark(site)
	for _, g := range c.Gates {
		if !cone[g.Out.ID] {
			continue
		}
		mark(g.Out)
		for _, in := range g.Fanin {
			mark(in)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Driver != nil {
			for _, in := range n.Driver.Fanin {
				mark(in)
			}
		}
	}

	ci := &cnfInst{c: c, s: sat.New(), cone: cone}
	ci.allocVars(need)

	// Good-circuit consistency for every supported driven net.
	for _, n := range c.Nets {
		if need[n.ID] && n.Driver != nil {
			ci.gateClauses(n.Driver, ci.gvar[n.ID], ci.gvarsOf(n.Driver), -1, 0)
		}
	}

	// Faulty-circuit consistency over the cone. The site carries the
	// injection; downstream cone gates re-evaluate with cone fanins read
	// from the faulty variables and side inputs from the good ones.
	for _, n := range c.Nets {
		if !cone[n.ID] {
			continue
		}
		if n == site {
			ci.injectSite(inj, n)
			continue
		}
		ci.gateClauses(n.Driver, ci.fvar[n.ID], ci.mixedVarsOf(n.Driver), -1, 0)
	}

	// Excitation / activation conditions as unit clauses on good values.
	for _, cd := range conds {
		ci.s.AddClause(sat.PosLit(int(ci.gvar[cd.net.ID]), cd.val))
	}

	// Detection: at least one cone primary output must differ.
	var diffs []sat.Lit
	for _, po := range c.POs {
		if !cone[po.ID] {
			continue
		}
		d := ci.s.NewVar()
		g := int(ci.gvar[po.ID])
		f := int(ci.fvar[po.ID])
		// d -> (g != f), i.e. (¬d ∨ g ∨ f) ∧ (¬d ∨ ¬g ∨ ¬f).
		ci.s.AddClause(sat.MkLit(d, true), sat.MkLit(g, false), sat.MkLit(f, false))
		ci.s.AddClause(sat.MkLit(d, true), sat.MkLit(g, true), sat.MkLit(f, true))
		diffs = append(diffs, sat.MkLit(d, false))
	}
	ci.s.AddClause(diffs...)
	return ci.solve(st, rng)
}

// solveJustify builds and solves a pure good-circuit justification instance
// (transition initialization, cell-aware pair initialization): find an input
// vector under which every condition net holds its required value.
func (e *Escalator) solveJustify(conds []condition, st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	c := e.c
	need := make([]bool, len(c.Nets))
	var stack []*netlist.Net
	mark := func(n *netlist.Net) {
		if !need[n.ID] {
			need[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, cd := range conds {
		mark(cd.net)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Driver != nil {
			for _, in := range n.Driver.Fanin {
				mark(in)
			}
		}
	}
	ci := &cnfInst{c: c, s: sat.New(), cone: make([]bool, len(c.Nets))}
	ci.allocVars(need)
	for _, n := range c.Nets {
		if need[n.ID] && n.Driver != nil {
			ci.gateClauses(n.Driver, ci.gvar[n.ID], ci.gvarsOf(n.Driver), -1, 0)
		}
	}
	for _, cd := range conds {
		ci.s.AddClause(sat.PosLit(int(ci.gvar[cd.net.ID]), cd.val))
	}
	return ci.solve(st, rng)
}

// allocVars assigns solver variables in net-ID order (good first, then
// faulty) — a fixed order, so variable numbering and therefore the solver's
// trajectory are deterministic.
func (ci *cnfInst) allocVars(need []bool) {
	ci.gvar = make([]int32, len(ci.c.Nets))
	ci.fvar = make([]int32, len(ci.c.Nets))
	for i := range ci.gvar {
		ci.gvar[i], ci.fvar[i] = -1, -1
	}
	for _, n := range ci.c.Nets {
		if need[n.ID] {
			ci.gvar[n.ID] = int32(ci.s.NewVar())
		}
	}
	for _, n := range ci.c.Nets {
		if ci.cone[n.ID] {
			ci.fvar[n.ID] = int32(ci.s.NewVar())
		}
	}
}

// gvarsOf returns the good variables of a gate's fanins.
func (ci *cnfInst) gvarsOf(g *netlist.Gate) []int32 {
	vars := make([]int32, len(g.Fanin))
	for i, in := range g.Fanin {
		vars[i] = ci.gvar[in.ID]
	}
	return vars
}

// mixedVarsOf returns a cone gate's fanin variables: faulty inside the cone,
// good outside (where faulty equals good).
func (ci *cnfInst) mixedVarsOf(g *netlist.Gate) []int32 {
	vars := make([]int32, len(g.Fanin))
	for i, in := range g.Fanin {
		if ci.cone[in.ID] {
			vars[i] = ci.fvar[in.ID]
		} else {
			vars[i] = ci.gvar[in.ID]
		}
	}
	return vars
}

// gateClauses emits the consistency clauses tying outVar to gate g's
// function of inVars: one clause per input assignment. forcedPin >= 0 pins
// that input to forcedVal inside the function (the fanout-branch injection)
// and drops it from the clauses — the faulty gate simply computes a
// one-variable-smaller function.
func (ci *cnfInst) gateClauses(g *netlist.Gate, outVar int32, inVars []int32, forcedPin int, forcedVal uint8) {
	n := len(g.Fanin)
	tt := g.Type.TT
	lits := make([]sat.Lit, 0, n+1)
	for a := uint(0); a < 1<<uint(n); a++ {
		if forcedPin >= 0 && uint8(a>>uint(forcedPin)&1) != forcedVal {
			continue
		}
		lits = lits[:0]
		for i := 0; i < n; i++ {
			if i == forcedPin {
				continue
			}
			// "some input differs from a" escapes the clause...
			lits = append(lits, sat.PosLit(int(inVars[i]), uint8(a>>uint(i)&1)).Neg())
		}
		// ...otherwise the output takes the table value.
		lits = append(lits, sat.PosLit(int(outVar), tt.Eval(a)))
		ci.s.AddClause(lits...)
	}
}

// injectSite emits the faulty-value definition of the fault site.
func (ci *cnfInst) injectSite(inj injection, site *netlist.Net) {
	fv := int(ci.fvar[site.ID])
	switch {
	case inj.stemNet != nil:
		// Stem stuck-at: the faulty value is the stuck value, period.
		ci.s.AddClause(sat.PosLit(fv, inj.stemVal))
	case inj.bridgeVictim != nil:
		// Dominant bridge: the victim assumes the aggressor's good value.
		src := int(ci.gvar[inj.bridgeSrc.ID])
		ci.s.AddClause(sat.MkLit(fv, true), sat.MkLit(src, false))
		ci.s.AddClause(sat.MkLit(fv, false), sat.MkLit(src, true))
	case inj.branchGate != nil:
		// Fanout-branch stuck-at: the site gate re-evaluates with the
		// branch pin pinned to the stuck value.
		ci.gateClauses(inj.branchGate, ci.fvar[site.ID], ci.mixedVarsOf(inj.branchGate),
			inj.branchPin, inj.branchVal)
	case inj.hostGate != nil:
		// Cell-aware host: under its activation condition (imposed as unit
		// clauses by the caller) the output complements.
		gv := int(ci.gvar[site.ID])
		ci.s.AddClause(sat.MkLit(fv, false), sat.MkLit(gv, false))
		ci.s.AddClause(sat.MkLit(fv, true), sat.MkLit(gv, true))
	}
}

// solve runs the instance and, on SAT, extracts the witness vector over the
// circuit's primary inputs: encoded inputs read the model, the rest fill
// from rng (exactly like PODEM's fillVector).
func (ci *cnfInst) solve(st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	before := ci.s.Stats()
	ok := ci.s.Solve()
	after := ci.s.Stats()
	st.Solves++
	st.Conflicts += after.Conflicts - before.Conflicts
	st.Decisions += after.Decisions - before.Decisions
	st.Propagations += after.Propagations - before.Propagations
	if !ok {
		return nil, false
	}
	vec := make([]uint8, len(ci.c.PIs))
	for i, pi := range ci.c.PIs {
		if v := ci.gvar[pi.ID]; v >= 0 {
			if ci.s.Value(int(v)) {
				vec[i] = 1
			}
		} else {
			vec[i] = uint8(rng.Intn(2))
		}
	}
	return vec, true
}
