package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTouchesLineLine(t *testing.T) {
	// Lines meeting at an endpoint touch.
	l1 := MustParseWKT("LINESTRING (0 0, 5 5)")
	l2 := MustParseWKT("LINESTRING (5 5, 10 0)")
	if !Touches(l1, l2) {
		t.Error("endpoint-meeting lines must touch")
	}
	// Lines crossing in their interiors do not touch.
	l3 := MustParseWKT("LINESTRING (0 5, 10 5)")
	l4 := MustParseWKT("LINESTRING (5 0, 5 10)")
	if Touches(l3, l4) {
		t.Error("interior-crossing lines must not touch")
	}
	if !Crosses(l3, l4) {
		t.Error("interior-crossing lines must cross")
	}
	// Collinear overlapping lines: interiors intersect, no touch.
	l5 := MustParseWKT("LINESTRING (0 0, 10 0)")
	l6 := MustParseWKT("LINESTRING (5 0, 15 0)")
	if Touches(l5, l6) {
		t.Error("overlapping collinear lines must not touch")
	}
	if !Overlaps(l5, l6) {
		t.Error("overlapping collinear lines must overlap")
	}
}

func TestCrossesDoesNotHoldForContainment(t *testing.T) {
	inner := MustParseWKT("LINESTRING (2 2, 8 8)")
	if Crosses(inner, unitSquare) {
		t.Error("a line wholly inside a polygon does not cross it")
	}
	if !Within(inner, unitSquare) {
		t.Error("the line is within the polygon")
	}
}

func TestMultiPolygonPredicates(t *testing.T) {
	mp := MustParseWKT("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))")
	if !Contains(mp, NewPoint(2, 2)) {
		t.Error("first member must contain the point")
	}
	if !Contains(mp, NewPoint(12, 12)) {
		t.Error("second member must contain the point")
	}
	if Contains(mp, NewPoint(7, 7)) {
		t.Error("gap between members must not be contained")
	}
	if !Intersects(mp, MustParseWKT("LINESTRING (2 2, 12 12)")) {
		t.Error("line through both members must intersect")
	}
}

func TestDistanceDegenerate(t *testing.T) {
	// Zero-length "segment" in a linestring.
	l := &LineString{Points: []Point{{3, 3}, {3, 3}}}
	if d := Distance(NewPoint(0, 3), l); d != 3 {
		t.Errorf("distance to degenerate segment = %v", d)
	}
	// MultiPoint to MultiPoint (no segments at all).
	a := &MultiPoint{Points: []Point{{0, 0}, {1, 0}}}
	b := &MultiPoint{Points: []Point{{4, 0}}}
	if d := Distance(a, b); d != 3 {
		t.Errorf("multipoint distance = %v", d)
	}
}

func TestConvexHullCollinear(t *testing.T) {
	mp := &MultiPoint{Points: []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}}
	h := ConvexHull(mp)
	if h.Kind() == KindPolygon {
		// A polygon of collinear points would be degenerate.
		if Area(h) > 1e-12 {
			t.Errorf("collinear hull area = %v", Area(h))
		}
	}
	// Hull must cover every input point.
	for _, p := range mp.Points {
		if Distance(h, &PointGeom{p}) > 1e-9 {
			t.Errorf("hull misses point %v", p)
		}
	}
}

func TestGeometryCollectionPredicates(t *testing.T) {
	gc := MustParseWKT("GEOMETRYCOLLECTION (POINT (1 1), POLYGON ((10 10, 20 10, 20 20, 10 20, 10 10)))")
	if !Intersects(gc, NewPoint(1, 1)) {
		t.Error("collection point member must intersect")
	}
	if !Intersects(gc, NewPoint(15, 15)) {
		t.Error("collection polygon member must intersect")
	}
	if Intersects(gc, NewPoint(5, 5)) {
		t.Error("gap must not intersect")
	}
	if dimension(gc.(*Collection)) != 2 {
		t.Error("collection dimension must be max of members")
	}
}

func TestPointInRingEdgeCases(t *testing.T) {
	ring := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}}
	cases := []struct {
		p    Point
		want int
	}{
		{Point{5, 5}, 1},
		{Point{0, 5}, 0},   // on left edge
		{Point{10, 5}, 0},  // on right edge
		{Point{5, 0}, 0},   // on bottom edge
		{Point{0, 0}, 0},   // corner
		{Point{-1, 5}, -1}, // outside left
		{Point{11, 5}, -1},
		{Point{5, -1}, -1},
		{Point{5, 11}, -1},
	}
	for _, c := range cases {
		if got := pointInRing(c.p, ring); got != c.want {
			t.Errorf("pointInRing(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestConcavePolygonContainment(t *testing.T) {
	// A U-shaped polygon: the notch is outside.
	u := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 7 10, 7 3, 3 3, 3 10, 0 10, 0 0))")
	if Contains(u, NewPoint(5, 6)) {
		t.Error("notch interior must not be contained")
	}
	if !Contains(u, NewPoint(1, 5)) {
		t.Error("left arm must be contained")
	}
	if !Contains(u, NewPoint(5, 1)) {
		t.Error("base must be contained")
	}
	// A segment spanning the notch exits the polygon: not contained.
	if Contains(u, MustParseWKT("LINESTRING (1 8, 9 8)")) {
		t.Error("segment across the notch must not be contained")
	}
}

// Property: Buffer(g, d) contains g's envelope corners for d >= 0.
func TestBufferProperty(t *testing.T) {
	f := func(x, y int8, w, h, dRaw uint8) bool {
		d := float64(dRaw%50) / 10
		g := NewRect(float64(x), float64(y), float64(x)+1+float64(w%10), float64(y)+1+float64(h%10))
		buf := Buffer(g, d)
		e := g.Envelope()
		corners := []Point{{e.MinX, e.MinY}, {e.MaxX, e.MinY}, {e.MinX, e.MaxY}, {e.MaxX, e.MaxY}}
		for _, c := range corners {
			if pointInPolygon(c, buf) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Distance is zero iff Intersects (for rectangles with margin).
func TestDistanceIntersectsConsistency(t *testing.T) {
	f := func(x1, y1, x2, y2 int8) bool {
		a := NewRect(float64(x1), float64(y1), float64(x1)+10, float64(y1)+10)
		b := NewRect(float64(x2), float64(y2), float64(x2)+10, float64(y2)+10)
		d := Distance(a, b)
		if Intersects(a, b) {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRingAreaSign(t *testing.T) {
	ccw := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}
	cw := []Point{{0, 0}, {0, 4}, {4, 4}, {4, 0}, {0, 0}}
	if ringArea(ccw) <= 0 {
		t.Error("CCW ring must have positive signed area")
	}
	if ringArea(cw) >= 0 {
		t.Error("CW ring must have negative signed area")
	}
	if math.Abs(ringArea(ccw)) != 16 || math.Abs(ringArea(cw)) != 16 {
		t.Error("magnitudes must match")
	}
}

func TestContainsSelf(t *testing.T) {
	// OGC: every polygon contains (and is within) itself.
	for _, wkt := range []string{
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"POLYGON ((0 0, 10 0, 5 10, 0 0))",
	} {
		g := MustParseWKT(wkt)
		if !Contains(g, g) {
			t.Errorf("Contains(self) false for %s", wkt)
		}
		if !Within(g, g) {
			t.Errorf("Within(self) false for %s", wkt)
		}
	}
	// A line on the boundary is still not contained (interior required).
	edge := MustParseWKT("LINESTRING (0 0, 10 0)")
	if Contains(unitSquare, edge) {
		t.Error("boundary line must not be contained")
	}
}

// TestAreaAndCentroidByKind pins Area and Centroid for every geometry
// kind, parsed from WKT.
func TestAreaAndCentroidByKind(t *testing.T) {
	cases := []struct {
		wkt    string
		kind   string
		area   float64
		cx, cy float64
	}{
		{"POINT (3 4)", "Point", 0, 3, 4},
		{"MULTIPOINT ((0 0), (4 2))", "MultiPoint", 0, 2, 1},
		{"LINESTRING (0 0, 2 0, 4 0)", "LineString", 0, 2, 0},
		{"MULTILINESTRING ((0 0, 2 2), (4 0, 6 2))", "MultiLineString", 0, 3, 1},
		{"POLYGON ((0 0, 4 0, 4 2, 0 2, 0 0))", "Polygon", 8, 2, 1},
		// Two unit-area squares weigh equally: the centroid is midway.
		{"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((4 0, 5 0, 5 1, 4 1, 4 0)))", "MultiPolygon", 2, 2.5, 0.5},
		// Collection: area sums, centroid is the mean of member centroids.
		{"GEOMETRYCOLLECTION (POINT (0 0), POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0)))", "GeometryCollection", 4, 1.5, 0.5},
	}
	for _, tc := range cases {
		g := MustParseWKT(tc.wkt)
		if got := g.Kind().String(); got != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.wkt, got, tc.kind)
		}
		if a := Area(g); math.Abs(a-tc.area) > 1e-9 {
			t.Errorf("%s: area %v, want %v", tc.wkt, a, tc.area)
		}
		if c := Centroid(g); math.Abs(c.X-tc.cx) > 1e-9 || math.Abs(c.Y-tc.cy) > 1e-9 {
			t.Errorf("%s: centroid %v, want (%v %v)", tc.wkt, c, tc.cx, tc.cy)
		}
	}
	// A degenerate (zero-area) polygon falls back to its vertex mean,
	// and a zero-area multipolygon to the origin.
	flat := &Polygon{Rings: [][]Point{{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 0}}}}
	if c := Centroid(flat); math.Abs(c.X-1.5) > 1e-9 || c.Y != 0 {
		t.Errorf("flat polygon centroid %v", c)
	}
	if c := Centroid(&MultiPolygon{Polygons: []*Polygon{flat}}); c != (Point{}) {
		t.Errorf("zero-area multipolygon centroid %v", c)
	}
	if c := Centroid(&MultiPoint{}); c != (Point{}) {
		t.Errorf("empty multipoint centroid %v", c)
	}
}
