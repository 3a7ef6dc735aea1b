package geom

import "testing"

func TestPtOps(t *testing.T) {
	p := Pt{2, 3}
	if q := p.Add(1, -1); q != (Pt{3, 2}) {
		t.Errorf("Add = %v", q)
	}
	if d := p.Manhattan(Pt{5, 1}); d != 5 {
		t.Errorf("Manhattan = %d, want 5", d)
	}
	if d := p.Manhattan(p); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 3}
	if r.W() != 4 || r.H() != 3 || r.Area() != 12 {
		t.Errorf("dims wrong: %dx%d area %d", r.W(), r.H(), r.Area())
	}
	if !r.Contains(Pt{0, 0}) || !r.Contains(Pt{3, 2}) {
		t.Error("Contains must include lower corner and interior")
	}
	if r.Contains(Pt{4, 0}) || r.Contains(Pt{0, 3}) {
		t.Error("Contains must exclude upper bounds (half-open)")
	}
}

func TestRectIntersectClip(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("must intersect")
	}
	c := a.Clip(b)
	if c != (Rect{2, 2, 4, 4}) {
		t.Errorf("Clip = %+v", c)
	}
	d := Rect{10, 10, 12, 12}
	if a.Intersects(d) {
		t.Error("disjoint rects must not intersect")
	}
	e := a.Clip(d)
	if e.Area() != 0 {
		t.Errorf("clip of disjoint rects must be empty, got %+v", e)
	}
}

func TestHPWL(t *testing.T) {
	if HPWL(nil) != 0 {
		t.Error("empty HPWL must be 0")
	}
	pts := []Pt{{0, 0}, {3, 1}, {1, 4}}
	if got := HPWL(pts); got != 3+4 {
		t.Errorf("HPWL = %d, want 7", got)
	}
	if got := HPWL([]Pt{{5, 5}}); got != 0 {
		t.Errorf("single-point HPWL = %d", got)
	}
}

func TestBBox(t *testing.T) {
	if b := BBox(nil); b.Area() != 0 {
		t.Errorf("empty BBox = %+v", b)
	}
	if b := BBox([]Pt{{2, 3}}); b != (Rect{2, 3, 3, 4}) {
		t.Errorf("single-point BBox = %+v", b)
	}
	if b := BBox([]Pt{{2, 3}, {0, 5}, {4, 1}}); b != (Rect{0, 1, 5, 6}) {
		t.Errorf("BBox = %+v", b)
	}
}

func TestWindowsCoverage(t *testing.T) {
	bounds := Rect{0, 0, 10, 10}
	covered := make([][]bool, 10)
	for i := range covered {
		covered[i] = make([]bool, 10)
	}
	count := 0
	Windows(bounds, 4, 4, func(w Rect) {
		count++
		if w.Area() == 0 {
			t.Error("empty window emitted")
		}
		for y := w.Y0; y < w.Y1; y++ {
			for x := w.X0; x < w.X1; x++ {
				covered[y][x] = true
			}
		}
	})
	if count != 9 {
		t.Errorf("window count = %d, want 9", count)
	}
	for y := range covered {
		for x := range covered[y] {
			if !covered[y][x] {
				t.Fatalf("cell (%d,%d) not covered", x, y)
			}
		}
	}
	// Degenerate parameters must be ignored.
	Windows(bounds, 0, 4, func(Rect) { t.Fatal("window with wnd=0") })
	Windows(bounds, 4, 0, func(Rect) { t.Fatal("window with stride=0") })
}
