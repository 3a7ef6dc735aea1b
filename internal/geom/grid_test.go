package geom

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Edge cases the grid and region must agree on: zero-area rects never
// intersect anything, touching edges (half-open) do not overlap, and
// negative coordinates behave like positive ones.
func TestRectEdgeCases(t *testing.T) {
	zero := Rect{3, 3, 3, 3}
	if zero.Area() != 0 {
		t.Fatalf("zero rect area = %d", zero.Area())
	}
	big := Rect{0, 0, 10, 10}
	if zero.Intersects(big) || big.Intersects(zero) {
		t.Error("zero-area rect must not intersect anything")
	}
	inverted := Rect{5, 5, 2, 2}
	if inverted.Intersects(big) || big.Intersects(inverted) {
		t.Error("inverted rect must not intersect anything")
	}
	// Touching edges: [0,4) and [4,8) share only the boundary line.
	a, b := Rect{0, 0, 4, 4}, Rect{4, 0, 8, 4}
	if a.Intersects(b) || b.Intersects(a) {
		t.Error("edge-touching rects must not intersect (half-open)")
	}
	if c := a.Clip(b); c.Area() != 0 {
		t.Errorf("clip of edge-touching rects = %+v", c)
	}
	// Corner-touching.
	c := Rect{4, 4, 8, 8}
	if a.Intersects(c) {
		t.Error("corner-touching rects must not intersect")
	}
	// Negative coordinates.
	n1, n2 := Rect{-6, -6, -2, -2}, Rect{-4, -4, 0, 0}
	if !n1.Intersects(n2) {
		t.Error("negative-coord rects must intersect")
	}
	if got := n1.Clip(n2); got != (Rect{-4, -4, -2, -2}) {
		t.Errorf("negative clip = %+v", got)
	}
	if n1.Intersects(Rect{-2, -6, 2, -2}) {
		t.Error("negative edge-touching rects must not intersect")
	}
	if !n1.Contains(Pt{-6, -6}) || n1.Contains(Pt{-2, -2}) {
		t.Error("negative-coord Contains must stay half-open")
	}
}

// bruteQuery is the reference the grid must match: scan every item.
func bruteQuery(items []GridItem, r Rect) []int32 {
	var ids []int32
	for _, it := range items {
		if it.R.Intersects(r) {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// randomRect draws a small rect inside (or slightly outside) bounds,
// including degenerate zero-area rects.
func randomRect(rng *rand.Rand, span int) Rect {
	x := rng.Intn(2*span) - span/2
	y := rng.Intn(2*span) - span/2
	w := rng.Intn(span / 4)
	h := rng.Intn(span / 4)
	return Rect{x, y, x + w, y + h}
}

// TestGridQueryMatchesBruteForce: on random geometry (random bucket sizes,
// rects crossing bucket boundaries, negative coordinates, zero-area rects)
// the indexed query set must equal the brute-force scan set exactly.
func TestGridQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		span := 16 + rng.Intn(100)
		bounds := Rect{0, 0, span, span}
		cell := 1 + rng.Intn(13)
		g := NewGrid(bounds, cell)
		var items []GridItem
		for i := 0; i < 5+rng.Intn(120); i++ {
			r := randomRect(rng, span)
			g.Insert(int32(i), r)
			if r.Area() > 0 {
				items = append(items, GridItem{ID: int32(i), R: r})
			}
		}
		if g.Len() != len(items) {
			t.Fatalf("trial %d: Len = %d, want %d (empty rects must be dropped)", trial, g.Len(), len(items))
		}
		for q := 0; q < 40; q++ {
			probe := randomRect(rng, span)
			want := bruteQuery(items, probe)
			got := g.Query(nil, probe)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d probe %+v (cell %d): grid %v != brute %v", trial, probe, cell, got, want)
			}
		}
	}
}

// TestGridQueryAppend: Query must append after existing dst content.
func TestGridQueryAppend(t *testing.T) {
	g := NewGrid(Rect{0, 0, 16, 16}, 4)
	g.Insert(7, Rect{1, 1, 3, 3})
	got := g.Query([]int32{99}, Rect{0, 0, 16, 16})
	if !reflect.DeepEqual(got, []int32{99, 7}) {
		t.Fatalf("Query append = %v", got)
	}
}

// TestGridPairsMatchesBruteForce: Pairs must visit each intersecting pair
// exactly once (regardless of how many buckets the pair shares), and the
// candidate count must not exceed the all-pairs bound.
func TestGridPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		span := 20 + rng.Intn(80)
		cell := 1 + rng.Intn(11)
		g := NewGrid(Rect{0, 0, span, span}, cell)
		var items []GridItem
		for i := 0; i < 4+rng.Intn(60); i++ {
			r := randomRect(rng, span)
			g.Insert(int32(i), r)
			if r.Area() > 0 {
				items = append(items, GridItem{ID: int32(i), R: r})
			}
		}
		want := map[[2]int32]int{}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if items[i].R.Intersects(items[j].R) {
					want[[2]int32{items[i].ID, items[j].ID}]++
				}
			}
		}
		got := map[[2]int32]int{}
		examined := g.Pairs(func(a, b GridItem) {
			if a.ID > b.ID {
				t.Fatalf("trial %d: pair (%d,%d) not ID-ordered", trial, a.ID, b.ID)
			}
			got[[2]int32{a.ID, b.ID}]++
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs != brute %d", trial, len(got), len(want))
		}
		for k, n := range got {
			if n != 1 {
				t.Fatalf("trial %d: pair %v visited %d times", trial, k, n)
			}
			if want[k] == 0 {
				t.Fatalf("trial %d: spurious pair %v", trial, k)
			}
		}
		n := int64(len(items))
		if examined < 0 || (n > 1 && examined > 10*n*(n-1)/2+int64(len(items))) {
			// Multi-bucket items inflate candidates; just sanity-bound it.
			t.Fatalf("trial %d: examined %d candidates for %d items", trial, examined, n)
		}
	}
}

// TestGridDeterministicOrder: two grids built with the same insert
// sequence visit identical pair sequences and query results.
func TestGridDeterministicOrder(t *testing.T) {
	build := func() *Grid {
		g := NewGrid(Rect{0, 0, 40, 40}, 6)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			g.Insert(int32(i), randomRect(rng, 40))
		}
		return g
	}
	g1, g2 := build(), build()
	var s1, s2 [][2]int32
	g1.Pairs(func(a, b GridItem) { s1 = append(s1, [2]int32{a.ID, b.ID}) })
	g2.Pairs(func(a, b GridItem) { s2 = append(s2, [2]int32{a.ID, b.ID}) })
	if !reflect.DeepEqual(s1, s2) {
		t.Error("pair visit order differs across identical builds")
	}
	q1 := g1.Query(nil, Rect{5, 5, 30, 30})
	q2 := g2.Query(nil, Rect{5, 5, 30, 30})
	if !reflect.DeepEqual(q1, q2) {
		t.Error("query results differ across identical builds")
	}
}

func TestGridEmptyBounds(t *testing.T) {
	g := NewGrid(Rect{}, 8)
	g.Insert(1, Rect{0, 0, 2, 2}) // clamped into the single bucket
	if got := g.Query(nil, Rect{-1, -1, 3, 3}); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("empty-bounds grid query = %v", got)
	}
}

func TestCellSet(t *testing.T) {
	var s CellSet
	if s.Len() != 0 {
		t.Fatal("zero CellSet must be empty")
	}
	s.Add(Pt{3, 1})
	s.Add(Pt{0, 2})
	s.Add(Pt{3, 1}) // duplicate
	s.Add(Pt{1, 1})
	want := []Pt{{1, 1}, {3, 1}, {0, 2}}
	if got := s.Cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Cells = %v, want %v (scan order, deduped)", got, want)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Mutation after a read re-normalizes.
	s.Add(Pt{0, 0})
	if got := s.Cells(); got[0] != (Pt{0, 0}) {
		t.Fatalf("Cells after second Add = %v", got)
	}
}
