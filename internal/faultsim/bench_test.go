package faultsim

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
)

// BenchmarkDetects times one detection word per fault of a fixed sample
// (every fault model, see oracleFaults) against a single-pattern and a
// mixed two-pattern block of sparc_fpu, the largest benchmark circuit. The
// sweep sub-benchmark runs the full-sweep oracle on the same work.
func BenchmarkDetects(b *testing.B) {
	c := bench.MustBuild("sparc_fpu", lib)
	e := New(c)
	rng := rand.New(rand.NewSource(1))
	faults := oracleFaults(c, dfm.ProfileLibrary(lib), rng, 300)
	blocks := oracleBlocks(e, rng)
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				for _, f := range faults {
					e.Detects(f, blk)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)*len(faults)), "ns/fault")
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				for _, f := range faults {
					detectsSweep(c, e.sim.Order(), f, blk)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)*len(faults)), "ns/fault")
	})
}
