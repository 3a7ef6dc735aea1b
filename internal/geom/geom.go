// Package geom provides the small geometric vocabulary shared by placement,
// routing and the DFM guideline checker: grid points, rectangles, and
// sliding density windows.
package geom

// Pt is a point on the routing grid.
type Pt struct {
	X, Y int
}

// Add returns p translated by (dx, dy).
func (p Pt) Add(dx, dy int) Pt { return Pt{p.X + dx, p.Y + dy} }

// Manhattan returns the L1 distance between two points.
func (p Pt) Manhattan(q Pt) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Rect is a half-open axis-aligned rectangle [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the rectangle area.
func (r Rect) Area() int { return r.W() * r.H() }

// Contains reports whether p lies in the rectangle.
func (r Rect) Contains(p Pt) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Intersects reports whether two rectangles share positive area. Empty
// (zero-area or inverted) rectangles intersect nothing — the half-open
// convention leaves them no interior to share.
func (r Rect) Intersects(o Rect) bool {
	return r.X0 < r.X1 && r.Y0 < r.Y1 && o.X0 < o.X1 && o.Y0 < o.Y1 &&
		r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

// Clip returns the intersection of two rectangles (empty if disjoint).
func (r Rect) Clip(o Rect) Rect {
	c := Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if c.X1 < c.X0 {
		c.X1 = c.X0
	}
	if c.Y1 < c.Y0 {
		c.Y1 = c.Y0
	}
	return c
}

// BBox returns the bounding rectangle of a point set, with each point
// occupying its own grid cell (so a single point yields a 1x1 rectangle).
// An empty point set yields the empty rectangle.
func BBox(pts []Pt) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X + 1, pts[0].Y + 1}
	for _, p := range pts[1:] {
		r.X0 = min(r.X0, p.X)
		r.Y0 = min(r.Y0, p.Y)
		r.X1 = max(r.X1, p.X+1)
		r.Y1 = max(r.Y1, p.Y+1)
	}
	return r
}

// HPWL returns the half-perimeter wirelength of a point set.
func HPWL(pts []Pt) int {
	if len(pts) == 0 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX = min(minX, p.X)
		maxX = max(maxX, p.X)
		minY = min(minY, p.Y)
		maxY = max(maxY, p.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// Windows enumerates wnd x wnd sliding windows covering the rectangle with
// the given stride, calling f for each window.
func Windows(bounds Rect, wnd, stride int, f func(Rect)) {
	if wnd <= 0 || stride <= 0 {
		return
	}
	for y := bounds.Y0; y < bounds.Y1; y += stride {
		for x := bounds.X0; x < bounds.X1; x += stride {
			w := Rect{x, y, x + wnd, y + wnd}.Clip(bounds)
			if w.Area() > 0 {
				f(w)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
