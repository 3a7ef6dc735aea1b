package atpg

import (
	"context"
	"fmt"
	"io"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
)

// buildAbsorbList: x = AND(a,b), y = OR(x,a) — x sa0 is undetectable
// (and statically provable), the rest of the stuck-at universe is not.
func buildAbsorbCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("absorb", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddGate("u0", lib.ByName("AND2X2"), a, b)
	y := c.AddGate("u1", lib.ByName("OR2X2"), x, a)
	c.MarkPO(y)
	return c
}

func stuckAtUniverse(c *netlist.Circuit) *fault.List {
	l := &fault.List{}
	for _, n := range c.Nets {
		for v := uint8(0); v <= 1; v++ {
			l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
		}
	}
	return l
}

// TestStaticScreenClassifies: the screen proves the redundant fault with
// zero searches and the run's verdicts match a screen-off run exactly.
func TestStaticScreenClassifies(t *testing.T) {
	c := buildAbsorbCircuit(t)
	lOff := stuckAtUniverse(c)
	off := Run(c, lOff, Config{Seed: 5, Workers: 1})

	lScr := stuckAtUniverse(c)
	scr := Run(c, lScr, Config{Seed: 5, Workers: 1, Static: implic.ModeScreen})
	if scr.StaticProven == 0 {
		t.Fatal("screen proved nothing on a circuit with a known redundancy")
	}
	if off.StaticProven != 0 {
		t.Fatalf("screen-off run reports StaticProven=%d", off.StaticProven)
	}
	if scr.Detected != off.Detected || scr.Undetectable != off.Undetectable || scr.Aborted != off.Aborted {
		t.Fatalf("verdict totals differ: screen %+v vs off %+v", scr, off)
	}
	for i := range lOff.Faults {
		if lOff.Faults[i].Status != lScr.Faults[i].Status {
			t.Errorf("fault %d: status %v (off) vs %v (screen)", i,
				lOff.Faults[i].Status, lScr.Faults[i].Status)
		}
	}
}

// TestStaticScreenCancellationAtomic: a run cancelled before the
// implication-closure boundary must leave zero static verdicts — the
// phase contributes everything or nothing, so a checkpoint resume never
// sees a partially screened universe.
func TestStaticScreenCancellationAtomic(t *testing.T) {
	c := buildAbsorbCircuit(t)
	l := stuckAtUniverse(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(c, l, Config{Seed: 5, Workers: 1, Static: implic.ModeScreen, Ctx: ctx})
	if !res.Cancelled {
		t.Fatal("pre-cancelled run should report Cancelled")
	}
	if res.StaticProven != 0 {
		t.Fatalf("cancelled run wrote %d static verdicts; the closure boundary must be atomic", res.StaticProven)
	}
	for _, f := range l.Faults {
		if f.Status != fault.Untried {
			t.Errorf("fault %d has status %v after a pre-cancelled run, want Untried", f.ID, f.Status)
		}
	}
}

// TestStaticScreenCapacityCliff: above implic.MaxLiterals/2 nets the
// closure is not built. The run must count atpg/static_unavailable once,
// prove nothing statically, and leave verdicts and the ledger digest
// identical to a screen-off run.
func TestStaticScreenCapacityCliff(t *testing.T) {
	c := netlist.New("wide", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddGate("u0", lib.ByName("AND2X2"), a, b)
	c.MarkPO(c.AddGate("u1", lib.ByName("OR2X2"), x, a))
	for i := 0; len(c.Nets) <= implic.MaxLiterals/2; i++ {
		p := c.AddPI(fmt.Sprintf("p%d", i))
		q := c.AddPI(fmt.Sprintf("q%d", i))
		c.MarkPO(c.AddGate(fmt.Sprintf("f%d", i), lib.ByName("NAND2X1"), p, q))
	}
	if implic.New(c) != nil {
		t.Fatalf("%d nets should exceed the closure capacity", len(c.Nets))
	}
	run := func(mode implic.Mode) (*fault.List, Result, *obs.Tracer, string) {
		l := &fault.List{}
		for _, n := range []*netlist.Net{a, b, x} {
			for v := uint8(0); v <= 1; v++ {
				l.Add(&fault.Fault{Model: fault.StuckAt, Net: n, Value: v})
			}
		}
		tr := obs.New()
		led := obs.NewLedger(io.Discard)
		res := Run(c, l, Config{Seed: 5, Workers: 1, Static: mode, Obs: tr, Ledger: led, Stage: "analyze"})
		return l, res, tr, led.Digest()
	}
	lOff, off, trOff, digOff := run(implic.ModeOff)
	lScr, scr, trScr, digScr := run(implic.ModeScreen)
	if n := trScr.Registry().Snapshot().Counters["atpg/static_unavailable"]; n != 1 {
		t.Errorf("atpg/static_unavailable = %d with the screen on, want 1", n)
	}
	if n := trOff.Registry().Snapshot().Counters["atpg/static_unavailable"]; n != 0 {
		t.Errorf("atpg/static_unavailable = %d with the screen off, want 0", n)
	}
	if scr.StaticProven != 0 {
		t.Errorf("StaticProven = %d without a closure", scr.StaticProven)
	}
	if off.Undetectable == 0 {
		t.Fatal("the redundant fault x sa0 was not proven undetectable")
	}
	for i := range lOff.Faults {
		if lOff.Faults[i].Status != lScr.Faults[i].Status {
			t.Errorf("fault %d: status %v (off) vs %v (screen)", i, lOff.Faults[i].Status, lScr.Faults[i].Status)
		}
	}
	if digOff != digScr {
		t.Errorf("ledger digest %s (off) vs %s (screen)", digOff, digScr)
	}
}
