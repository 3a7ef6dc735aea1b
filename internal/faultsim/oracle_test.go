package faultsim

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/sim"
)

// detectsSweep is the full-sweep fault simulator Engine.Detects replaced:
// it copies every net's good word, re-evaluates every gate in topological
// order whose fanin changed, and compares every PO. It is the oracle for
// the event-driven propagation.
func detectsSweep(c *netlist.Circuit, order []*netlist.Gate, f *fault.Fault, b *Block) logic.Word {
	fvals := append([]logic.Word(nil), b.Vals...)
	dirty := make([]bool, len(c.Nets))

	var forcedGate *netlist.Gate
	var forcedPin int
	var forcedWord logic.Word
	useForced := false

	broadcast := func(v uint8) logic.Word {
		if v&1 == 1 {
			return logic.AllOnes
		}
		return 0
	}
	goodInitOf := func(n *netlist.Net, v uint8) logic.Word {
		if v&1 == 1 {
			return b.InitVals[n.ID]
		}
		return ^b.InitVals[n.ID]
	}

	switch f.Model {
	case fault.StuckAt:
		if f.BranchGate == nil {
			fvals[f.Net.ID] = broadcast(f.Value)
			dirty[f.Net.ID] = true
		} else {
			forcedGate, forcedPin = f.BranchGate, f.BranchPin
			forcedWord = broadcast(f.Value)
			useForced = true
		}
	case fault.Transition:
		cond := b.HasInit & goodInitOf(f.Net, f.Value)
		if f.BranchGate == nil {
			fvals[f.Net.ID] = (b.Vals[f.Net.ID] &^ cond) | (broadcast(f.Value) & cond)
			if fvals[f.Net.ID] == b.Vals[f.Net.ID] {
				return 0
			}
			dirty[f.Net.ID] = true
		} else {
			forcedGate, forcedPin = f.BranchGate, f.BranchPin
			forcedWord = (b.Vals[f.Net.ID] &^ cond) | (broadcast(f.Value) & cond)
			useForced = true
		}
	case fault.Bridge:
		if fvals[f.Net.ID] == b.Vals[f.Other.ID] {
			return 0
		}
		fvals[f.Net.ID] = b.Vals[f.Other.ID]
		dirty[f.Net.ID] = true
	case fault.CellAware:
		act := cellAwareSweep(f, b)
		if act == 0 {
			return 0
		}
		out := f.Gate.Out
		fvals[out.ID] = b.Vals[out.ID] ^ act
		dirty[out.ID] = true
	}

	var buf [8]logic.Word
	for _, g := range order {
		anyDirty := false
		for _, in := range g.Fanin {
			if dirty[in.ID] {
				anyDirty = true
				break
			}
		}
		if !anyDirty && !(useForced && g == forcedGate) {
			continue
		}
		in := buf[:len(g.Fanin)]
		for i, fn := range g.Fanin {
			in[i] = fvals[fn.ID]
		}
		if useForced && g == forcedGate {
			in[forcedPin] = forcedWord
		}
		nv := g.Type.TT.EvalWord(in)
		if nv != fvals[g.Out.ID] {
			fvals[g.Out.ID] = nv
			dirty[g.Out.ID] = true
		}
	}

	var det logic.Word
	for _, po := range c.POs {
		det |= fvals[po.ID] ^ b.Vals[po.ID]
	}
	return det & b.Valid
}

// cellAwareSweep is the per-pattern cell-aware activation the word-parallel
// minterm version replaced.
func cellAwareSweep(f *fault.Fault, b *Block) logic.Word {
	g := f.Gate
	beh := f.Behavior
	asgFinal := sim.GateInputAssignments(g, b.Vals)
	var act logic.Word
	for p := 0; p < b.N; p++ {
		if beh.StaticMask>>asgFinal[p]&1 == 1 {
			act |= 1 << uint(p)
		}
	}
	if len(beh.PairMask) > 0 && b.HasInit != 0 {
		asgInit := sim.GateInputAssignments(g, b.InitVals)
		for p := 0; p < b.N; p++ {
			if b.HasInit>>uint(p)&1 == 0 || act>>uint(p)&1 == 1 {
				continue
			}
			if beh.PairMask[asgInit[p]]>>asgFinal[p]&1 == 1 {
				act |= 1 << uint(p)
			}
		}
	}
	return act
}

// oracleFaults samples every fault model on c: stem and branch stuck-at and
// transition faults, a stem fault on a PO net, random bridges, a bridge whose
// aggressor lies downstream of its victim, and the library profile's
// cell-aware defects on random gates.
func oracleFaults(c *netlist.Circuit, prof *dfm.LibraryProfile, rng *rand.Rand, n int) []*fault.Fault {
	var out []*fault.Fault
	add := func(f *fault.Fault) { out = append(out, f) }
	nets := c.Nets
	for k := 0; k < n; k++ {
		net := nets[rng.Intn(len(nets))]
		v := uint8(rng.Intn(2))
		add(&fault.Fault{Model: fault.StuckAt, Net: net, Value: v})
		add(&fault.Fault{Model: fault.Transition, Net: net, Value: v})
		if len(net.Fanout) > 0 {
			p := net.Fanout[rng.Intn(len(net.Fanout))]
			add(&fault.Fault{Model: fault.StuckAt, Net: net, Value: v, BranchGate: p.Gate, BranchPin: p.Pin})
			add(&fault.Fault{Model: fault.Transition, Net: net, Value: v ^ 1, BranchGate: p.Gate, BranchPin: p.Pin})
		}
		other := nets[rng.Intn(len(nets))]
		if other != net {
			add(&fault.Fault{Model: fault.Bridge, Net: net, Other: other})
		}
		g := c.Gates[rng.Intn(len(c.Gates))]
		for i := range prof.PerCell[g.Type.Index] {
			cd := &prof.PerCell[g.Type.Index][i]
			add(&fault.Fault{Model: fault.CellAware, Gate: g, Defect: cd.Defect, Behavior: cd.Behavior})
		}
	}
	// A stem fault on a PO net, both polarities, and a branch fault on a
	// PO net that also feeds a gate (unobservable at the stem).
	for _, po := range c.POs[:min(4, len(c.POs))] {
		add(&fault.Fault{Model: fault.StuckAt, Net: po, Value: 0})
		add(&fault.Fault{Model: fault.StuckAt, Net: po, Value: 1})
		if len(po.Fanout) > 0 {
			p := po.Fanout[0]
			add(&fault.Fault{Model: fault.StuckAt, Net: po, Value: 1, BranchGate: p.Gate, BranchPin: p.Pin})
		}
	}
	// Bridges whose aggressor is a few gates downstream of the victim, so
	// the victim's own effect reaches the aggressor net.
	for k := 0; k < n/4; k++ {
		victim := nets[rng.Intn(len(nets))]
		aggr := victim
		for hop := 0; hop < 3 && len(aggr.Fanout) > 0; hop++ {
			aggr = aggr.Fanout[rng.Intn(len(aggr.Fanout))].Gate.Out
		}
		if aggr != victim {
			add(&fault.Fault{Model: fault.Bridge, Net: victim, Other: aggr})
		}
	}
	return out
}

// oracleBlocks returns a full single-pattern block and a partial block
// mixing single- and two-pattern tests.
func oracleBlocks(e *Engine, rng *rand.Rand) []*Block {
	npi := len(e.c.PIs)
	vec := func() []uint8 {
		v := make([]uint8, npi)
		for i := range v {
			v[i] = uint8(rng.Intn(2))
		}
		return v
	}
	single := make([]Test, 64)
	for i := range single {
		single[i] = Test{Vec: vec()}
	}
	mixed := make([]Test, 61)
	for i := range mixed {
		mixed[i] = Test{Vec: vec()}
		if i%3 != 0 {
			mixed[i].Init = vec()
		}
	}
	return []*Block{e.SimBlock(single), e.SimBlock(mixed)}
}

// TestDetectsMatchesSweep checks the event-driven Detects against the full
// sweep on all twelve benchmark circuits, every fault model, and single-
// and two-pattern blocks. The engine is reused across faults and blocks, so
// a touched net or queued gate left behind by one call shows up as a
// mismatch in a later one.
func TestDetectsMatchesSweep(t *testing.T) {
	prof := dfm.ProfileLibrary(lib)
	for ci, name := range bench.Names {
		t.Run(name, func(t *testing.T) {
			c := bench.MustBuild(name, lib)
			e := New(c)
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			faults := oracleFaults(c, prof, rng, 300)
			models := map[fault.Model]int{}
			detected := 0
			for _, b := range oracleBlocks(e, rng) {
				for _, f := range faults {
					got := e.Detects(f, b)
					want := detectsSweep(c, e.sim.Order(), f, b)
					if got != want {
						t.Fatalf("%s: event-driven %016x, sweep %016x", f, got, want)
					}
					models[f.Model]++
					if got != 0 {
						detected++
					}
				}
			}
			if len(models) != 4 || detected == 0 {
				t.Fatalf("vacuous sample: models %v, %d detections", models, detected)
			}
		})
	}
}
