package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want) {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := Rect{200, 200}
	tests := []struct {
		p        Point
		contains bool
		clamped  Point
	}{
		{Point{100, 100}, true, Point{100, 100}},
		{Point{0, 0}, true, Point{0, 0}},
		{Point{200, 200}, true, Point{200, 200}},
		{Point{-5, 100}, false, Point{0, 100}},
		{Point{100, 250}, false, Point{100, 200}},
		{Point{300, -10}, false, Point{200, 0}},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.contains {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.contains)
		}
		if got := r.Clamp(tt.p); got != tt.clamped {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.clamped)
		}
	}
}

func TestClampIdempotentProperty(t *testing.T) {
	r := Rect{200, 150}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := r.Clamp(Point{x, y})
		return r.Contains(c) && r.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectDerived(t *testing.T) {
	r := Rect{30, 40}
	if got := r.Area(); !almostEqual(got, 1200) {
		t.Errorf("Area = %v, want 1200", got)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1.5, 2}).String(); got != "(1.50, 2.00)" {
		t.Errorf("String = %q", got)
	}
}
