package dfm

import (
	"dfmresyn/internal/fault"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/route"
)

// Report tallies guideline violations found while building the fault list.
type Report struct {
	PerGuideline map[string]int
	PerCategory  map[Category]int
}

func newReport() *Report {
	return &Report{PerGuideline: map[string]int{}, PerCategory: map[Category]int{}}
}

func (r *Report) hit(g *Guideline) {
	r.PerGuideline[g.ID]++
	r.PerCategory[g.Cat]++
}

// BuildFaults translates DFM guideline violations into the target fault set
// F for the placed-and-routed circuit: cell-aware internal faults from the
// library profile, and external stuck-at / transition / bridging faults
// from the routed layout. The result is deterministic for a given layout.
func BuildFaults(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report) {
	l, rep, _ := BuildFaultsStats(c, lay, prof)
	return l, rep
}

// BuildFaultsStats is BuildFaults plus scan-cost accounting. The bridge
// phase walks the layout's occupied-cell set and the density phase reads
// per-window aggregate indexes instead of walking the whole die; ScanStats
// records what each examined against the naive full-die baselines.
func BuildFaultsStats(c *netlist.Circuit, lay *route.Layout, prof *LibraryProfile) (*fault.List, *Report, ScanStats) {
	b := newBuilder(c, lay)
	b.internal(prof)
	b.vias()
	b.bridgesIndexed()
	b.segments()
	b.densitiesIndexed()
	b.finishStats()
	return b.list, b.rep, b.stats
}

// netRule / pinRule / pairRule key the per-phase deduplication maps.
type netRule struct {
	net int
	gid string
}
type pinRule struct {
	net, gate, pin int
	gid            string
}
type pairRule struct {
	a, b int
	gid  string
}

// builder assembles the fault list and report from per-phase violation
// triggers.
type builder struct {
	c    *netlist.Circuit
	lay  *route.Layout
	gs   []*Guideline
	list *fault.List
	rep  *Report

	bridgeHits map[pairRule]bool
	densHits   map[netRule]bool

	// stats tallies scan costs.
	stats ScanStats
	// acc is the density-window accumulator shared across every window
	// and guideline evaluation of this build; dens caches per-layer
	// window-aggregate indexes keyed by window size.
	acc  *winAcc
	dens [2]map[int]*densityIndex
}

func newBuilder(c *netlist.Circuit, lay *route.Layout) *builder {
	return &builder{
		c:          c,
		lay:        lay,
		gs:         Guidelines(),
		list:       &fault.List{},
		rep:        newReport(),
		bridgeHits: map[pairRule]bool{},
		densHits:   map[netRule]bool{},
		acc:        newWinAcc(len(c.Nets)),
	}
}

// internal adds every instance's cell-aware defects (layout-independent).
func (b *builder) internal(prof *LibraryProfile) {
	byID := map[string]*Guideline{}
	for _, g := range b.gs {
		byID[g.ID] = g
	}
	for _, g := range b.c.Gates {
		for i := range prof.PerCell[g.Type.Index] {
			cd := &prof.PerCell[g.Type.Index][i]
			b.list.Add(&fault.Fault{
				Model:     fault.CellAware,
				Internal:  true,
				Gate:      g,
				Defect:    cd.Defect,
				Behavior:  cd.Behavior,
				Guideline: cd.Guideline,
			})
			b.rep.hit(byID[cd.Guideline])
		}
	}
}

// vias adds external via opens -> transition faults on the net. An open at
// a *pin* via (M1 stack) disconnects a single sink, so it becomes a branch
// fault at that gate input; other vias break the stem.
func (b *builder) vias() {
	viaHits := map[netRule]bool{}
	pinHits := map[pinRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		netLen := r.Length()
		for _, v := range r.Vias {
			for _, g := range b.gs {
				if g.CheckVia == nil || !g.CheckVia(v, netLen) {
					continue
				}
				b.rep.hit(g)
				// Pin vias at a sink location: branch faults.
				if v.From == route.M1 {
					if bg, bp, ok := sinkAt(b.lay, n, v.At); ok {
						key := pinRule{n.ID, bg.ID, bp, g.ID}
						if pinHits[key] {
							continue
						}
						pinHits[key] = true
						for val := uint8(0); val <= 1; val++ {
							b.list.Add(&fault.Fault{
								Model:      fault.Transition,
								Net:        n,
								Value:      val,
								BranchGate: bg,
								BranchPin:  bp,
								Guideline:  g.ID,
							})
						}
						continue
					}
				}
				key := netRule{n.ID, g.ID}
				if viaHits[key] {
					continue
				}
				viaHits[key] = true
				for val := uint8(0); val <= 1; val++ {
					b.list.Add(&fault.Fault{
						Model:     fault.Transition,
						Net:       n,
						Value:     val,
						Guideline: g.ID,
					})
				}
			}
		}
	}
}

// applyBridge deduplicates one bridge trigger and adds its fault pair.
func (b *builder) applyBridge(g *Guideline, aID, bID int) {
	if aID == bID {
		return
	}
	if aID > bID {
		aID, bID = bID, aID
	}
	key := pairRule{aID, bID, g.ID}
	if b.bridgeHits[key] {
		return
	}
	b.bridgeHits[key] = true
	b.rep.hit(g)
	na, nb := b.c.Nets[aID], b.c.Nets[bID]
	b.list.Add(&fault.Fault{Model: fault.Bridge, Net: na, Other: nb, Guideline: g.ID})
	b.list.Add(&fault.Fault{Model: fault.Bridge, Net: nb, Other: na, Guideline: g.ID})
}

// scanBridgeCell produces the raw bridge triggers of one grid cell from the
// current layout: same-cell crowding first, then the adjacent-cell minimum
// pitch, each over the guidelines in deck order.
func (b *builder) scanBridgeCell(li int, layer route.Layer, x, y int, occ []int32) {
	if len(occ) >= 2 {
		if a, bid, ok := firstDistinct(occ); ok {
			b.stats.BridgePairs++
			for _, g := range b.gs {
				if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), false) {
					b.applyBridge(g, a, bid)
				}
			}
		}
	}
	if len(occ) >= 1 {
		if nb := neighborOcc(b.lay, li, x, y); nb >= 0 && nb != int(occ[0]) {
			b.stats.BridgePairs++
			for _, g := range b.gs {
				if g.CheckSpacing != nil && g.CheckSpacing(layer, len(occ), true) {
					b.applyBridge(g, int(occ[0]), nb)
				}
			}
		}
	}
}

// segments adds external long-segment opens -> transition faults.
func (b *builder) segments() {
	segHits := map[netRule]bool{}
	for _, n := range b.c.Nets {
		r := &b.lay.Routes[n.ID]
		for _, s := range r.Segs {
			for _, g := range b.gs {
				if g.CheckSegment == nil || !g.CheckSegment(s) {
					continue
				}
				key := netRule{n.ID, g.ID}
				if segHits[key] {
					continue
				}
				segHits[key] = true
				b.rep.hit(g)
				for val := uint8(0); val <= 1; val++ {
					b.list.Add(&fault.Fault{
						Model:     fault.Transition,
						Net:       n,
						Value:     val,
						Guideline: g.ID,
					})
				}
			}
		}
	}
}

// applyDensity deduplicates one density trigger and adds its fault pair.
func (b *builder) applyDensity(g *Guideline, dom int) {
	key := netRule{dom, g.ID}
	if b.densHits[key] {
		return
	}
	b.densHits[key] = true
	b.rep.hit(g)
	n := b.c.Nets[dom]
	for val := uint8(0); val <= 1; val++ {
		b.list.Add(&fault.Fault{
			Model:     fault.StuckAt,
			Net:       n,
			Value:     val,
			Guideline: g.ID,
		})
	}
}

// sinkAt finds the sink pin of net n placed at point pt (the pin the via
// serves), if any.
func sinkAt(lay *route.Layout, n *netlist.Net, pt geom.Pt) (*netlist.Gate, int, bool) {
	for _, p := range n.Fanout {
		if lay.P.Loc[p.Gate.ID] == pt {
			return p.Gate, p.Pin, true
		}
	}
	return nil, 0, false
}

// firstDistinct returns the first two distinct net IDs in the occupancy
// list.
func firstDistinct(occ []int32) (int, int, bool) {
	for i := 1; i < len(occ); i++ {
		if occ[i] != occ[0] {
			return int(occ[0]), int(occ[i]), true
		}
	}
	return 0, 0, false
}

// neighborOcc returns the first occupant of the cell to the right (same
// layer), or -1.
func neighborOcc(lay *route.Layout, li, x, y int) int {
	if x+1 >= len(lay.Occ[li][y]) {
		return -1
	}
	occ := lay.Occ[li][y][x+1]
	if len(occ) == 0 {
		return -1
	}
	return int(occ[0])
}
