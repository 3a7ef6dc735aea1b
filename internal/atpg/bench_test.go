package atpg

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
)

// BenchmarkPODEM times one Generator over a fixed sample of tv80 faults:
// stem and branch stuck-at and transition faults, bridges, and the library
// profile's cell-aware defects, at the default backtrack limit. Each
// iteration searches every sampled fault once with a fresh per-fault rng,
// so iterations repeat the same work.
func BenchmarkPODEM(b *testing.B) {
	c := bench.MustBuild("tv80", lib)
	prof := dfm.ProfileLibrary(lib)
	rng := rand.New(rand.NewSource(1))
	var faults []*fault.Fault
	for k := 0; k < 40; k++ {
		n := c.Nets[rng.Intn(len(c.Nets))]
		v := uint8(rng.Intn(2))
		faults = append(faults,
			&fault.Fault{Model: fault.StuckAt, Net: n, Value: v},
			&fault.Fault{Model: fault.Transition, Net: n, Value: v},
			&fault.Fault{Model: fault.Bridge, Net: n, Other: c.Nets[rng.Intn(len(c.Nets))]})
		if len(n.Fanout) > 1 {
			p := n.Fanout[rng.Intn(len(n.Fanout))]
			faults = append(faults, &fault.Fault{Model: fault.StuckAt, Net: n, Value: v, BranchGate: p.Gate, BranchPin: p.Pin})
		}
		g := c.Gates[rng.Intn(len(c.Gates))]
		if cds := prof.PerCell[g.Type.Index]; len(cds) > 0 {
			cd := cds[rng.Intn(len(cds))]
			faults = append(faults, &fault.Fault{Model: fault.CellAware, Gate: g, Defect: cd.Defect, Behavior: cd.Behavior})
		}
	}
	gen := NewGenerator(c, c.Levelize(), c.Levels(), DefaultBacktrackLimit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, f := range faults {
			gen.Generate(f, rand.New(rand.NewSource(int64(j))))
		}
	}
	b.ReportMetric(float64(gen.Backtracks())/float64(b.N), "backtracks/op")
}
