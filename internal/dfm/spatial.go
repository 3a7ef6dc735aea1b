package dfm

import (
	"slices"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/route"
)

// ScanStats reports how much geometry a DFM build examined versus what the
// naive scans would have: the observable half of the spatial-index
// contract (the other half, output identical to the naive full-die walks,
// is enforced by the oracle in this package's tests). The flow publishes
// these as obs counters and the benchflow report derives its
// pair-reduction column from them.
type ScanStats struct {
	// CellsVisited counts the occupancy cells the bridge scan touched;
	// CellsNaive is the full-die walk it replaced (2 layers x die area).
	CellsVisited, CellsNaive int64
	// BridgePairs counts the candidate net pairs the bridge scan examined
	// (at most two per occupied cell: same-cell crowding and the
	// right-neighbor pitch check); BridgePairsNaive is the all-pairs
	// segment-proximity count a windowless checker would examine.
	BridgePairs, BridgePairsNaive int64
	// DensityCellReads counts per-cell occupancy reads of the density
	// phase; DensityCellReadsNaive is the per-guideline full-window
	// rescan it replaced (density guidelines x layers x die area).
	DensityCellReads, DensityCellReadsNaive int64
}

// PairReduction returns BridgePairsNaive / BridgePairs (0 when either side
// is unknown): how many candidate pairs the grid index saves the bridge
// scan over a naive all-pairs check.
func (s ScanStats) PairReduction() float64 {
	if s.BridgePairs <= 0 || s.BridgePairsNaive <= 0 {
		return 0
	}
	return float64(s.BridgePairsNaive) / float64(s.BridgePairs)
}

// CellReduction returns CellsNaive / CellsVisited (0 when unknown).
func (s ScanStats) CellReduction() float64 {
	if s.CellsVisited <= 0 || s.CellsNaive <= 0 {
		return 0
	}
	return float64(s.CellsNaive) / float64(s.CellsVisited)
}

// winAcc is the shared density-window accumulator: per-net cell counts
// plus the list of touched net IDs, reused across every window and
// guideline evaluation of a build instead of allocating a fresh map per
// window per guideline (the allocs/op win BenchmarkBuildFaults locks in).
type winAcc struct {
	counts  []int32
	touched []int32
}

func newWinAcc(nets int) *winAcc {
	return &winAcc{counts: make([]int32, nets)}
}

func (a *winAcc) add(id int32) {
	if a.counts[id] == 0 {
		a.touched = append(a.touched, id)
	}
	a.counts[id]++
}

func (a *winAcc) reset() {
	for _, id := range a.touched {
		a.counts[id] = 0
	}
	a.touched = a.touched[:0]
}

// dominant picks the net with the most cells in the window, smallest ID on
// ties — the same verdict the original per-window count map produced
// (sorted IDs ascending, strictly-greater comparison). -1 when empty.
func (a *winAcc) dominant() int {
	if len(a.touched) == 0 {
		return -1
	}
	slices.Sort(a.touched)
	best, bestN := -1, int32(0)
	for _, id := range a.touched {
		if a.counts[id] > bestN {
			best, bestN = int(id), a.counts[id]
		}
	}
	return best
}

// densityIndex holds the per-window aggregates of one (layer, window-size)
// combination: eager occupied-cell counts (one pass over the layer's
// occupied cells serves every density guideline of that window size), and
// lazily-computed dominant nets — most windows never trip a density
// guideline, so dominance is only resolved (and cached) for the ones that
// do. domUnknown marks a window not yet resolved; -1 a resolved empty one.
type densityIndex struct {
	nx   int
	used []int32
	dom  []int32
}

const domUnknown = -2

// buildDensityIndex counts the occupied cells of one layer into the window
// grid of the given size. Windows tile the die (stride == size), so each
// cell lands in exactly one window.
func buildDensityIndex(lay *route.Layout, li, wnd int) (*densityIndex, int64) {
	die := lay.P.Die
	nx := (die.W() + wnd - 1) / wnd
	ny := (die.H() + wnd - 1) / wnd
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	di := &densityIndex{nx: nx, used: make([]int32, nx*ny), dom: make([]int32, nx*ny)}
	for i := range di.dom {
		di.dom[i] = domUnknown
	}
	cells := lay.OccCells(li)
	for _, p := range cells {
		di.used[((p.Y-die.Y0)/wnd)*nx+(p.X-die.X0)/wnd]++
	}
	return di, int64(len(cells))
}

// densityIdx returns the cached index for (layer, window size), building
// it on first use.
func (b *builder) densityIdx(li, wnd int) *densityIndex {
	if b.dens[li] == nil {
		b.dens[li] = map[int]*densityIndex{}
	}
	if di, ok := b.dens[li][wnd]; ok {
		return di
	}
	di, reads := buildDensityIndex(b.lay, li, wnd)
	b.stats.DensityCellReads += reads
	b.dens[li][wnd] = di
	return di
}

// domAt resolves (and caches) the dominant net of one window through the
// shared accumulator — the same per-cell occurrence counts and smallest-
// ID-on-ties verdict the naive window scan produces.
func (b *builder) domAt(di *densityIndex, li, wi int, w geom.Rect) int {
	if di.dom[wi] != domUnknown {
		return int(di.dom[wi])
	}
	b.acc.reset()
	b.stats.DensityCellReads += int64(w.Area())
	for y := w.Y0; y < w.Y1; y++ {
		for x := w.X0; x < w.X1; x++ {
			for _, id := range b.lay.Occ[li][y][x] {
				b.acc.add(id)
			}
		}
	}
	dom := b.acc.dominant()
	di.dom[wi] = int32(dom)
	return dom
}

// densitiesIndexed is the density phase: every density guideline's window
// grid in deck order, but each window reads its precomputed occupancy
// count, and only windows whose guideline fires resolve a dominant net.
// The faults it adds, and their order, equal a naive per-window rescan.
func (b *builder) densitiesIndexed() {
	die := b.lay.P.Die
	for _, g := range b.gs {
		if g.CheckDensity == nil {
			continue
		}
		for li := 0; li < 2; li++ {
			layer := route.Layer(li) + route.M2
			di := b.densityIdx(li, g.Window)
			geom.Windows(die, g.Window, g.Window, func(w geom.Rect) {
				wi := ((w.Y0-die.Y0)/g.Window)*di.nx + (w.X0-die.X0)/g.Window
				d := float64(di.used[wi]) / float64(w.Area())
				if !g.CheckDensity(layer, d) {
					return
				}
				dom := b.domAt(di, li, wi, w)
				if dom < 0 {
					return
				}
				b.applyDensity(g, dom)
			})
		}
	}
}

// bridgesIndexed is the bridge phase: instead of walking every die cell,
// it walks the layout's occupied cells in scan order (layer, row, column).
// An empty cell can trigger no spacing guideline, so the faults it adds,
// and their order, equal a full-die walk.
func (b *builder) bridgesIndexed() {
	for li := 0; li < 2; li++ {
		layer := route.Layer(li) + route.M2
		for _, p := range b.lay.OccCells(li) {
			b.stats.CellsVisited++
			b.scanBridgeCell(li, layer, p.X, p.Y, b.lay.Occ[li][p.Y][p.X])
		}
	}
}

// finishStats fills in the naive-cost baselines after a build: what the
// replaced scans would have examined on this layout.
func (b *builder) finishStats() {
	die := b.lay.P.Die
	b.stats.CellsNaive = 2 * int64(die.Area())
	b.stats.BridgePairsNaive = route.SegPairsNaive(b.lay)
	densityGuidelines := int64(0)
	for _, g := range b.gs {
		if g.CheckDensity != nil {
			densityGuidelines++
		}
	}
	b.stats.DensityCellReadsNaive = densityGuidelines * 2 * int64(die.Area())
}
