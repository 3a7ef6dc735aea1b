package geom

import "sort"

// GridItem is one indexed rectangle.
type GridItem struct {
	ID int32
	R  Rect
}

// Grid is a uniform bucket index over axis-aligned rectangles. Each item
// lands in every bucket its rectangle touches; queries gather bucket
// candidates and filter with the exact Rect.Intersects test, so a grid
// query returns exactly the brute-force answer.
//
// Determinism contract: Query results are ascending by ID (duplicates from
// multi-bucket items removed), and Pairs visits pairs in a fixed order
// derived from bucket scan order and per-bucket insertion order — the same
// insert sequence always yields the same visit sequence. No map state is
// involved anywhere.
type Grid struct {
	bounds Rect
	cell   int
	nx, ny int
	bkts   [][]GridItem
	n      int
}

// DefaultGridCell is the bucket edge length used by the physical pipeline:
// large enough that small dies stay in a handful of buckets (near-zero
// overhead), small enough that 10k-gate dies cut candidate sets by orders
// of magnitude. It matches the smaller DFM density window.
const DefaultGridCell = 8

// NewGrid builds an empty index over bounds with the given bucket edge
// length (clamped to >= 1). Items outside bounds are clamped into the edge
// buckets, so nothing is ever lost.
func NewGrid(bounds Rect, cell int) *Grid {
	if cell < 1 {
		cell = 1
	}
	nx := (bounds.W() + cell - 1) / cell
	ny := (bounds.H() + cell - 1) / cell
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return &Grid{bounds: bounds, cell: cell, nx: nx, ny: ny, bkts: make([][]GridItem, nx*ny)}
}

// Len returns the number of inserted items.
func (g *Grid) Len() int { return g.n }

// bucketSpan returns the clamped bucket coordinate range covering r.
func (g *Grid) bucketSpan(r Rect) (bx0, by0, bx1, by1 int) {
	clampDiv := func(v, n int) int {
		b := v / g.cell
		if v < 0 {
			b = 0
		}
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		return b
	}
	bx0 = clampDiv(r.X0-g.bounds.X0, g.nx)
	by0 = clampDiv(r.Y0-g.bounds.Y0, g.ny)
	bx1 = clampDiv(r.X1-1-g.bounds.X0, g.nx)
	by1 = clampDiv(r.Y1-1-g.bounds.Y0, g.ny)
	return
}

// Insert adds the rectangle under the given ID; empty rectangles are
// dropped. IDs need not be unique.
func (g *Grid) Insert(id int32, r Rect) {
	if r.Area() <= 0 {
		return
	}
	bx0, by0, bx1, by1 := g.bucketSpan(r)
	it := GridItem{ID: id, R: r}
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			i := by*g.nx + bx
			g.bkts[i] = append(g.bkts[i], it)
		}
	}
	g.n++
}

// Query appends the IDs of all rectangles overlapping r to dst and returns
// it, ascending and deduplicated — the ID-ordered iteration the
// determinism contract promises.
func (g *Grid) Query(dst []int32, r Rect) []int32 {
	if r.Area() <= 0 || g.n == 0 {
		return dst
	}
	start := len(dst)
	bx0, by0, bx1, by1 := g.bucketSpan(r)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, it := range g.bkts[by*g.nx+bx] {
				if it.R.Intersects(r) {
					dst = append(dst, it.ID)
				}
			}
		}
	}
	tail := dst[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	out := dst[:start]
	for i, id := range tail {
		if i == 0 || id != tail[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Pairs enumerates every overlapping pair of inserted rectangles exactly
// once, in deterministic order, and returns how many candidate pairs it
// examined (the windowed-pair cost an all-pairs scan would inflate to
// n*(n-1)/2). Each intersecting pair is reported from the single bucket
// containing the top-left corner of the pair's intersection, which makes
// the exactly-once guarantee purely arithmetic — no visited-set, no map.
func (g *Grid) Pairs(visit func(a, b GridItem)) int64 {
	var examined int64
	for by := 0; by < g.ny; by++ {
		for bx := 0; bx < g.nx; bx++ {
			bkt := g.bkts[by*g.nx+bx]
			for i := 0; i < len(bkt); i++ {
				for j := i + 1; j < len(bkt); j++ {
					examined++
					a, b := bkt[i], bkt[j]
					if !a.R.Intersects(b.R) {
						continue
					}
					// Canonical bucket of the pair: where the intersection's
					// top-left corner lives.
					cx := max(a.R.X0, b.R.X0)
					cy := max(a.R.Y0, b.R.Y0)
					hx, hy, _, _ := g.bucketSpan(Rect{cx, cy, cx + 1, cy + 1})
					if hx != bx || hy != by {
						continue
					}
					if a.ID > b.ID || (a.ID == b.ID && (b.R.Y0 < a.R.Y0 || (b.R.Y0 == a.R.Y0 && b.R.X0 < a.R.X0))) {
						a, b = b, a
					}
					visit(a, b)
				}
			}
		}
	}
	return examined
}

// CellSet accumulates grid cells and serves them as a sorted, deduplicated
// slice in scan order (row-major: Y, then X) — the occupied-cell set the
// indexed DFM bridge scan iterates instead of the whole die. Adds are O(1)
// appends; normalization is deferred to the first Cells call after a
// mutation. The zero value is an empty set.
type CellSet struct {
	pts    []Pt
	sorted bool
}

// Add records a cell. Duplicates are allowed and removed on read.
func (s *CellSet) Add(p Pt) {
	s.pts = append(s.pts, p)
	s.sorted = false
}

// Len returns the number of distinct cells.
func (s *CellSet) Len() int { return len(s.Cells()) }

// Cells returns the distinct cells sorted by (Y, X). The returned slice is
// owned by the set; callers must not modify it.
func (s *CellSet) Cells() []Pt {
	if !s.sorted {
		sort.Slice(s.pts, func(i, j int) bool {
			if s.pts[i].Y != s.pts[j].Y {
				return s.pts[i].Y < s.pts[j].Y
			}
			return s.pts[i].X < s.pts[j].X
		})
		out := s.pts[:0]
		for i, p := range s.pts {
			if i == 0 || p != s.pts[i-1] {
				out = append(out, p)
			}
		}
		s.pts = out
		s.sorted = true
	}
	return s.pts
}
