// Package faultsim is a 64-way parallel-pattern fault simulator for the
// four fault models of the DFM fault universe (stuck-at, transition,
// bridging, cell-aware). It simulates blocks of up to 64 tests at once and
// supports fault dropping.
package faultsim

import (
	"math/bits"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/sim"
)

// Test is one test in the target test set T. Vec is the applied vector (one
// bit per PI, indexed as Circuit.PIs). Init, when non-nil, is the
// initialization vector of a two-pattern test; single-pattern tests leave
// it nil. A two-pattern test counts as one test, as in the paper's column T.
type Test struct {
	Init []uint8
	Vec  []uint8
}

// Engine simulates one circuit. It is not safe for concurrent use: the
// scratch buffers for faulty-value propagation are reused across calls.
//
// Detects is event-driven (the PPSFP scheme of Waicukauski et al., 1985):
// only the gates in the fault site's fanout cone whose inputs actually
// change are evaluated, level by level, and only the nets they touch are
// reset afterwards.
type Engine struct {
	c   *netlist.Circuit
	sim *sim.Simulator

	level   []int             // per gate ID: logic level of its output net
	buckets [][]*netlist.Gate // per level: gates scheduled for evaluation
	queued  []bool            // per gate ID: scheduled in its bucket
	fvals   []logic.Word      // per net ID: faulty value, valid where touched
	touched []bool            // per net ID: fvals holds the faulty value
	trail   []*netlist.Net    // touched nets, in touch order
}

// New builds an engine for the circuit.
func New(c *netlist.Circuit) *Engine {
	s := sim.New(c)
	e := &Engine{
		c:       c,
		sim:     s,
		level:   make([]int, len(c.Gates)),
		queued:  make([]bool, len(c.Gates)),
		fvals:   make([]logic.Word, len(c.Nets)),
		touched: make([]bool, len(c.Nets)),
	}
	netLevel := make([]int, len(c.Nets))
	maxLevel := 0
	for _, g := range s.Order() {
		lv := 0
		for _, in := range g.Fanin {
			lv = max(lv, netLevel[in.ID])
		}
		lv++
		netLevel[g.Out.ID] = lv
		e.level[g.ID] = lv
		maxLevel = max(maxLevel, lv)
	}
	e.buckets = make([][]*netlist.Gate, maxLevel+1)
	return e
}

// Circuit returns the engine's circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// Block holds the good-circuit simulation of up to 64 tests.
type Block struct {
	N        int          // number of tests in the block
	Valid    logic.Word   // bit p set for p < N
	HasInit  logic.Word   // bit p set if test p is two-pattern
	InitVals []logic.Word // good values per net, initialization phase
	Vals     []logic.Word // good values per net, final phase
}

// SimBlock good-simulates up to 64 tests.
func (e *Engine) SimBlock(tests []Test) *Block {
	if len(tests) > 64 {
		panic("faultsim: block larger than 64 tests")
	}
	b := &Block{N: len(tests)}
	npi := len(e.c.PIs)
	initW := make([]logic.Word, npi)
	vecW := make([]logic.Word, npi)
	for p, t := range tests {
		b.Valid |= 1 << uint(p)
		if len(t.Vec) != npi {
			panic("faultsim: test vector length mismatch")
		}
		for i := 0; i < npi; i++ {
			if t.Vec[i]&1 == 1 {
				vecW[i] |= 1 << uint(p)
			}
		}
		if t.Init != nil {
			b.HasInit |= 1 << uint(p)
			for i := 0; i < npi; i++ {
				if t.Init[i]&1 == 1 {
					initW[i] |= 1 << uint(p)
				}
			}
		}
	}
	b.Vals = e.sim.Run(vecW)
	b.InitVals = e.sim.Run(initW)
	return b
}

// Detects returns the word of tests in the block that detect f.
func (e *Engine) Detects(f *fault.Fault, b *Block) logic.Word {
	det := e.propagate(f, b)
	for _, n := range e.trail {
		e.touched[n.ID] = false
	}
	e.trail = e.trail[:0]
	return det & b.Valid
}

// propagate injects f, evaluates the gates its effect reaches in level
// order, and returns the PO difference word. The caller resets the trail.
func (e *Engine) propagate(f *fault.Fault, b *Block) logic.Word {
	// A branch fault forces one (gate, pin) only; the stem keeps its good
	// value, so propagation starts at that gate.
	var forcedGate *netlist.Gate
	var forcedPin int
	var forcedWord logic.Word

	broadcast := func(v uint8) logic.Word {
		if v&1 == 1 {
			return logic.AllOnes
		}
		return 0
	}

	switch f.Model {
	case fault.StuckAt:
		if f.BranchGate == nil {
			e.set(f.Net, broadcast(f.Value))
		} else {
			forcedGate, forcedPin = f.BranchGate, f.BranchPin
			forcedWord = broadcast(f.Value)
		}

	case fault.Transition:
		// Launch condition: the site held Value in the init phase and
		// should move to ~Value; the slow site keeps Value.
		init := b.InitVals[f.Net.ID]
		if f.Value&1 == 0 {
			init = ^init
		}
		cond := b.HasInit & init
		fv := (b.Vals[f.Net.ID] &^ cond) | (broadcast(f.Value) & cond)
		if f.BranchGate == nil {
			if fv == b.Vals[f.Net.ID] {
				return 0
			}
			e.set(f.Net, fv)
		} else {
			forcedGate, forcedPin, forcedWord = f.BranchGate, f.BranchPin, fv
		}

	case fault.Bridge:
		// Dominant model: the victim assumes the aggressor's good value.
		if b.Vals[f.Net.ID] == b.Vals[f.Other.ID] {
			return 0
		}
		e.set(f.Net, b.Vals[f.Other.ID])

	case fault.CellAware:
		act := cellAwareActivation(f, b)
		if act == 0 {
			return 0
		}
		out := f.Gate.Out
		e.set(out, b.Vals[out.ID]^act)
	}
	if forcedGate != nil {
		e.schedule(forcedGate)
	}

	var buf [8]logic.Word
	for lv := 0; lv < len(e.buckets); lv++ {
		bucket := e.buckets[lv]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			e.queued[g.ID] = false
			in := buf[:len(g.Fanin)]
			for k, fn := range g.Fanin {
				in[k] = e.value(fn, b)
			}
			if g == forcedGate {
				in[forcedPin] = forcedWord
			}
			if nv := g.Type.TT.EvalWord(in); nv != e.value(g.Out, b) {
				e.set(g.Out, nv)
			}
		}
		e.buckets[lv] = bucket[:0]
	}

	// Only touched nets can differ from the good machine. A branch fault
	// on a PO net is not observable at the stem, which is never touched.
	var det logic.Word
	for _, n := range e.trail {
		if n.IsPO {
			det |= e.fvals[n.ID] ^ b.Vals[n.ID]
		}
	}
	return det
}

// value returns net n's value in the faulty machine.
func (e *Engine) value(n *netlist.Net, b *Block) logic.Word {
	if e.touched[n.ID] {
		return e.fvals[n.ID]
	}
	return b.Vals[n.ID]
}

// set records n's faulty value and schedules the gates it feeds.
func (e *Engine) set(n *netlist.Net, v logic.Word) {
	if !e.touched[n.ID] {
		e.touched[n.ID] = true
		e.trail = append(e.trail, n)
	}
	e.fvals[n.ID] = v
	for _, p := range n.Fanout {
		e.schedule(p.Gate)
	}
}

// schedule queues g for evaluation at its level, once.
func (e *Engine) schedule(g *netlist.Gate) {
	if e.queued[g.ID] {
		return
	}
	e.queued[g.ID] = true
	lv := e.level[g.ID]
	e.buckets[lv] = append(e.buckets[lv], g)
}

// cellAwareActivation computes the word of tests whose gate-input
// assignments activate the cell-aware fault (output flip at the final
// phase): the OR of the input minterms the behavior's masks select,
// evaluated on all 64 patterns at once.
func cellAwareActivation(f *fault.Fault, b *Block) logic.Word {
	g := f.Gate
	beh := f.Behavior
	var act logic.Word
	for m := beh.StaticMask; m != 0; m &= m - 1 {
		act |= minterm(g, b.Vals, uint(bits.TrailingZeros64(m)))
	}
	if len(beh.PairMask) > 0 && b.HasInit != 0 {
		for a1, m := range beh.PairMask {
			if m == 0 {
				continue
			}
			init := minterm(g, b.InitVals, uint(a1)) & b.HasInit
			if init == 0 {
				continue
			}
			for ; m != 0; m &= m - 1 {
				act |= init & minterm(g, b.Vals, uint(bits.TrailingZeros64(m)))
			}
		}
	}
	return act & b.Valid
}

// minterm returns the word of patterns under which g's inputs carry the
// packed assignment a (bit i is input i).
func minterm(g *netlist.Gate, vals []logic.Word, a uint) logic.Word {
	w := logic.AllOnes
	for i, in := range g.Fanin {
		if a>>uint(i)&1 == 1 {
			w &= vals[in.ID]
		} else {
			w &^= vals[in.ID]
		}
	}
	return w
}

// RunAll fault-simulates the whole test sequence against every fault in l
// that is not already Detected or Undetectable, marking newly detected
// faults (fault dropping across blocks). It returns the number of faults
// newly marked Detected.
func (e *Engine) RunAll(l *fault.List, tests []Test) int {
	newly := 0
	for start := 0; start < len(tests); start += 64 {
		end := start + 64
		if end > len(tests) {
			end = len(tests)
		}
		b := e.SimBlock(tests[start:end])
		for _, f := range l.Faults {
			if f.Status == fault.Detected || f.Status == fault.Undetectable {
				continue
			}
			if e.Detects(f, b) != 0 {
				f.Status = fault.Detected
				newly++
			}
		}
	}
	return newly
}

// DetectedBy returns, for each test, how many currently-undetected faults
// it is the first to detect, simulating in order with dropping. It is used
// for reverse-order test-set compaction.
func (e *Engine) DetectedBy(l *fault.List, tests []Test) []int {
	per := make([]int, len(tests))
	dropped := make(map[*fault.Fault]bool)
	for start := 0; start < len(tests); start += 64 {
		end := start + 64
		if end > len(tests) {
			end = len(tests)
		}
		b := e.SimBlock(tests[start:end])
		for _, f := range l.Faults {
			if f.Status == fault.Undetectable || dropped[f] {
				continue
			}
			det := e.Detects(f, b)
			if det == 0 {
				continue
			}
			// Credit the first detecting test in the block.
			for p := 0; p < b.N; p++ {
				if det>>uint(p)&1 == 1 {
					per[start+p]++
					break
				}
			}
			dropped[f] = true
		}
	}
	return per
}
