package dfm

import (
	"fmt"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/place"
	"dfmresyn/internal/route"
)

// buildFaultsNaive is the oracle the indexed build is checked against: the
// same builder, but its bridge phase walks every cell of the die and its
// density phase rescans every window cell by cell.
func buildFaultsNaive(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report, ScanStats) {
	b := newBuilder(c, lay)
	b.internal(prof)
	b.vias()
	b.bridgesNaive()
	b.segments()
	b.densitiesNaive()
	b.finishStats()
	return b.list, b.rep, b.stats
}

// bridgesNaive walks the occupancy grid cell by cell in scan order.
func (b *builder) bridgesNaive() {
	for li := 0; li < 2; li++ {
		layer := route.Layer(li) + route.M2
		for y := range b.lay.Occ[li] {
			rowCells := b.lay.Occ[li][y]
			for x := range rowCells {
				b.stats.CellsVisited++
				b.scanBridgeCell(li, layer, x, y, rowCells[x])
			}
		}
	}
}

// densitiesNaive walks every density guideline's window grid in deck
// order and counts each window's occupancy from the cells themselves.
func (b *builder) densitiesNaive() {
	for _, g := range b.gs {
		if g.CheckDensity == nil {
			continue
		}
		for li := 0; li < 2; li++ {
			layer := route.Layer(li) + route.M2
			geom.Windows(b.lay.P.Die, g.Window, g.Window, func(w geom.Rect) {
				used := 0
				b.acc.reset()
				b.stats.DensityCellReads += int64(w.Area())
				for y := w.Y0; y < w.Y1; y++ {
					for x := w.X0; x < w.X1; x++ {
						occ := b.lay.Occ[li][y][x]
						if len(occ) > 0 {
							used++
						}
						for _, id := range occ {
							b.acc.add(id)
						}
					}
				}
				if !g.CheckDensity(layer, float64(used)/float64(w.Area())) {
					return
				}
				if dom := b.acc.dominant(); dom >= 0 {
					b.applyDensity(g, dom)
				}
			})
		}
	}
}

// diffUniverse compares two fault universes fault by fault (in order) and
// counter by counter; it returns "" when they are identical.
func diffUniverse(wantL *fault.List, wantR *Report, gotL *fault.List, gotR *Report) string {
	if wantL.Len() != gotL.Len() {
		return fmt.Sprintf("fault count %d != %d", gotL.Len(), wantL.Len())
	}
	for i := range wantL.Faults {
		wf, gf := wantL.Faults[i], gotL.Faults[i]
		if wf.String() != gf.String() || wf.Internal != gf.Internal {
			return fmt.Sprintf("fault %d: %q != %q", i, gf.String(), wf.String())
		}
	}
	if fmt.Sprint(wantR.PerGuideline) != fmt.Sprint(gotR.PerGuideline) {
		return fmt.Sprintf("per-guideline report %v != %v", gotR.PerGuideline, wantR.PerGuideline)
	}
	if fmt.Sprint(wantR.PerCategory) != fmt.Sprint(gotR.PerCategory) {
		return fmt.Sprintf("per-category report %v != %v", gotR.PerCategory, wantR.PerCategory)
	}
	return ""
}

// TestSpatialFullBuildIdentical: the indexed build must produce the naive
// oracle's universe — every fault in the same order, the same report — on
// the layout of each of the 12 benchmark circuits (placed and routed as
// the flow does), while examining fewer cells.
func TestSpatialFullBuildIdentical(t *testing.T) {
	prof := ProfileLibrary(lib)
	for _, name := range bench.Names {
		t.Run(name, func(t *testing.T) {
			c := bench.MustBuild(name, lib)
			p, err := place.Place(c, 0.70, 1)
			if err != nil {
				t.Fatal(err)
			}
			lay := route.Route(p)
			gl, gr, gstats := BuildFaultsStats(c, lay, prof)
			nl, nr, nstats := buildFaultsNaive(c, lay, prof)
			if msg := diffUniverse(nl, nr, gl, gr); msg != "" {
				t.Fatalf("indexed universe diverges from naive: %s", msg)
			}
			// Candidate pairs examined are a property of the occupied
			// geometry, identical across walks; only the cells walked differ.
			if gstats.BridgePairs != nstats.BridgePairs {
				t.Errorf("pair counts differ: indexed %d, naive %d", gstats.BridgePairs, nstats.BridgePairs)
			}
			if gstats.CellsVisited >= nstats.CellsVisited {
				t.Errorf("indexed walk visited %d cells, naive %d: no reduction", gstats.CellsVisited, nstats.CellsVisited)
			}
			if nstats.CellsVisited != nstats.CellsNaive {
				t.Errorf("naive walk visited %d of %d cells", nstats.CellsVisited, nstats.CellsNaive)
			}
			if gstats.DensityCellReads >= nstats.DensityCellReads {
				t.Errorf("indexed density reads %d, naive %d: no reduction", gstats.DensityCellReads, nstats.DensityCellReads)
			}
			if gstats.PairReduction() <= 1 {
				t.Errorf("pair reduction %.2f <= 1 (pairs %d, naive %d)",
					gstats.PairReduction(), gstats.BridgePairs, gstats.BridgePairsNaive)
			}
		})
	}
}

// BenchmarkBuildFaults measures the universe build against the naive
// oracle; the index's win shows up in ns/op, the shared density
// accumulator's in allocs/op.
func BenchmarkBuildFaults(b *testing.B) {
	c, lay := buildTestLayout(b, 5, 260)
	prof := ProfileLibrary(lib)
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildFaultsStats(c, lay, prof)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildFaultsNaive(c, lay, prof)
		}
	})
}
