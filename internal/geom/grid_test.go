package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveStore is the reference implementation: a flat map with O(n) range
// queries, against which Grid is differentially tested.
type naiveStore map[int]Point

func (n naiveStore) inRange(p Point, r float64) []int {
	var out []int
	for id, q := range n {
		if q.Dist2(p) <= r*r {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func gridInRange(g *Grid, p Point, r float64) []int {
	var out []int
	g.ForEachInRange(p, r, func(id int, _ Point) { out = append(out, id) })
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridBasicOps(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Point{5, 5})
	g.Insert(2, Point{25, 5})
	g.Insert(3, Point{5, 25})
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	if got := gridInRange(g, Point{5, 5}, 1); !equalIDs(got, []int{1}) {
		t.Fatalf("range around (5,5): %v, want [1]", got)
	}
	if got := gridInRange(g, Point{15, 15}, 15); !equalIDs(got, []int{1, 2, 3}) {
		t.Fatalf("wide range: %v, want [1 2 3]", got)
	}
	// Cross a cell boundary.
	g.Move(1, Point{95, 95})
	if got := gridInRange(g, Point{5, 5}, 1); len(got) != 0 {
		t.Fatalf("moved point still found at old position: %v", got)
	}
	if got := gridInRange(g, Point{95, 95}, 1); !equalIDs(got, []int{1}) {
		t.Fatalf("moved point not found at new position: %v", got)
	}
	// Move within the same cell.
	g.Move(2, Point{26, 6})
	if p, ok := g.At(2); !ok || p != (Point{26, 6}) {
		t.Fatalf("At(2) = %v,%v after same-cell move", p, ok)
	}
	g.Remove(2)
	if g.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", g.Len())
	}
	if _, ok := g.At(2); ok {
		t.Fatal("removed id still present")
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	// The radio predicate is dist² <= r²; a point exactly at distance r
	// must be reported, including across cell boundaries.
	g := NewGrid(75)
	g.Insert(0, Point{0, 0})
	g.Insert(1, Point{75, 0})
	if got := gridInRange(g, Point{0, 0}, 75); !equalIDs(got, []int{0, 1}) {
		t.Fatalf("boundary point missing: %v, want [0 1]", got)
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(10)
	g.Insert(0, Point{-5, -5})
	g.Insert(1, Point{-95, 4})
	if got := gridInRange(g, Point{-4, -4}, 3); !equalIDs(got, []int{0}) {
		t.Fatalf("negative-coordinate lookup: %v, want [0]", got)
	}
	if got := gridInRange(g, Point{0, 0}, 200); !equalIDs(got, []int{0, 1}) {
		t.Fatalf("wide negative lookup: %v, want [0 1]", got)
	}
}

// TestGridMatchesNaiveUnderRandomOps is the differential property test:
// an arbitrary interleaving of inserts, moves and removals must leave the
// grid answering range queries identically to a flat scan, for query
// radii around, below and above the cell size.
func TestGridMatchesNaiveUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const cell = 75.0
	g := NewGrid(cell)
	ref := naiveStore{}
	nextID := 0
	var freed []int // removed ids, reinserted before any new id is made

	randPoint := func() Point {
		// Include positions outside [0, 1000] to exercise negative cells.
		return Point{X: rng.Float64()*1200 - 100, Y: rng.Float64()*1200 - 100}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(ref) == 0: // insert, under a freed id if any
			id := nextID
			if n := len(freed); n > 0 {
				id, freed = freed[n-1], freed[:n-1]
			} else {
				nextID++
			}
			g.Insert(id, randPoint())
			p, _ := g.At(id)
			ref[id] = p
		case op < 8: // move a random existing id
			id := randExisting(rng, ref)
			p := randPoint()
			if rng.Intn(2) == 0 {
				// Nudge within (probably) the same cell.
				old := ref[id]
				p = Point{X: old.X + rng.Float64()*2 - 1, Y: old.Y + rng.Float64()*2 - 1}
			}
			g.Move(id, p)
			ref[id] = p
		default: // remove
			id := randExisting(rng, ref)
			g.Remove(id)
			delete(ref, id)
			freed = append(freed, id)
			if _, ok := g.At(id); ok {
				t.Fatalf("step %d: removed id %d still present", step, id)
			}
		}
		if g.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, g.Len(), len(ref))
		}

		if step%50 != 0 {
			continue
		}
		q := randPoint()
		for _, r := range []float64{0, cell / 3, cell, 2.5 * cell} {
			got := gridInRange(g, q, r)
			want := ref.inRange(q, r)
			if !equalIDs(got, want) {
				t.Fatalf("step %d: query %v r=%v: grid %v, naive %v", step, q, r, got, want)
			}
			// The candidate superset must contain every exact match.
			cand := map[int]bool{}
			for _, id := range g.AppendCandidatesInRange(q, r, nil) {
				cand[id] = true
			}
			for _, id := range want {
				if !cand[id] {
					t.Fatalf("step %d: candidate set missing in-range id %d", step, id)
				}
			}
		}
	}
}

func randExisting(rng *rand.Rand, ref naiveStore) int {
	ids := make([]int, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

func TestGridMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewGrid(0)", func() { NewGrid(0) })
	expectPanic("NewGrid(-1)", func() { NewGrid(-1) })
	g := NewGrid(10)
	g.Insert(1, Point{})
	expectPanic("duplicate Insert", func() { g.Insert(1, Point{1, 1}) })
	expectPanic("negative Insert", func() { g.Insert(-1, Point{}) })
	expectPanic("Move unknown", func() { g.Move(9, Point{}) })
	expectPanic("Move negative", func() { g.Move(-1, Point{}) })
	expectPanic("Remove unknown", func() { g.Remove(9) })
	expectPanic("Remove of a hole below a present id", func() { g.Remove(0) })
	g.Remove(1)
	expectPanic("Remove twice", func() { g.Remove(1) })
	if _, ok := g.At(-1); ok || g.Len() != 0 {
		t.Fatalf("At(-1) present = %v, Len = %d after removing the only point", ok, g.Len())
	}
}

// TestGridChurnAllocatesNothing: the radio inserts every transmission's
// origin and removes it one airtime later, over the same few cells for a
// whole run. Ids index a dense slice and an emptied cell keeps its
// backing array, so once ids and cells have been seen that churn
// allocates nothing.
func TestGridChurnAllocatesNothing(t *testing.T) {
	g := NewGrid(75)
	pts := []Point{{10, 10}, {80, 10}, {10, 80}, {-5, -5}}
	churn := func() {
		for id, p := range pts {
			g.Insert(id, p)
		}
		for id := range pts {
			g.Remove(id) // every cell empties
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("Insert/Remove churn over a fixed cell set allocates %v times, want 0", allocs)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after churn, want 0", g.Len())
	}
}
