package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform spatial hash over integer-keyed points. It buckets
// points into square cells of a fixed size so that range queries visit
// only the cells overlapping the query disc instead of every stored
// point. With cell size equal to the query radius a query touches at
// most a 3×3 block of cells, making neighbour enumeration O(occupancy
// of those cells) — O(local degree) for the radio layer — rather than
// O(total points).
//
// The grid is unbounded: cell coordinates are derived by flooring the
// point coordinates, so negative and arbitrarily large positions work.
// Ids are not: items is a dense slice indexed by id, so ids must be
// small non-negative integers (the radio layer uses attach indices and
// pooled-transmission ids, both bounded by a live population), and a
// removed id may be inserted again. A cell that empties keeps its entry
// and backing array, so churn over a fixed set of cells — a frame put
// on the air where one just ended — allocates nothing.
// All operations are deterministic: the same sequence of
// Insert/Move/Remove calls yields the same internal layout, and
// ForEachInRange visits cells in a fixed row-major order. Callers that
// need a canonical ordering (the radio layer sorts candidates by node
// index) must impose it themselves; within one cell, points are visited
// in an order that depends on the mutation history.
//
// Grid is not safe for concurrent use; the simulation kernel is
// single-threaded.
type Grid struct {
	cell  float64
	cells map[cellKey][]int
	items []gridItem
	n     int // stored points: items entries with present set
}

type cellKey struct {
	cx, cy int32
}

type gridItem struct {
	p       Point
	cell    cellKey
	present bool
}

// NewGrid creates a grid with the given cell size in metres. The radio
// layer uses its transmission range, so a range query inflated by the
// mobility slack spans at most a 3×3 (occasionally 4×4) cell block.
// Non-positive cell sizes panic: they indicate a mis-wired caller.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		panic(fmt.Sprintf("geom: invalid grid cell size %v", cellSize))
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[cellKey][]int),
	}
}

// Len returns the number of stored points.
func (g *Grid) Len() int { return g.n }

// item returns the entry stored under id, or nil when there is none.
func (g *Grid) item(id int) *gridItem {
	if id < 0 || id >= len(g.items) || !g.items[id].present {
		return nil
	}
	return &g.items[id]
}

func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / g.cell)),
		cy: int32(math.Floor(p.Y / g.cell)),
	}
}

// Insert stores point p under id. Inserting a negative id, or one that
// is already present, panics: the radio layer hands out each id to one
// live owner at a time, so either indicates a bookkeeping bug, never a
// runtime condition.
func (g *Grid) Insert(id int, p Point) {
	if id < 0 {
		panic(fmt.Sprintf("geom: negative grid id %d", id))
	}
	if g.item(id) != nil {
		panic(fmt.Sprintf("geom: duplicate grid insert for id %d", id))
	}
	for id >= len(g.items) {
		g.items = append(g.items, gridItem{})
	}
	k := g.keyFor(p)
	g.items[id] = gridItem{p: p, cell: k, present: true}
	g.cells[k] = append(g.cells[k], id)
	g.n++
}

// Move updates the stored point for id, re-bucketing only when the
// point crossed a cell boundary. Moving an unknown id panics.
func (g *Grid) Move(id int, p Point) {
	it := g.item(id)
	if it == nil {
		panic(fmt.Sprintf("geom: move of unknown grid id %d", id))
	}
	it.p = p
	k := g.keyFor(p)
	if k == it.cell {
		return
	}
	g.removeFromCell(id, it.cell)
	it.cell = k
	g.cells[k] = append(g.cells[k], id)
}

// Remove deletes id from the grid. Removing an unknown id panics.
func (g *Grid) Remove(id int) {
	it := g.item(id)
	if it == nil {
		panic(fmt.Sprintf("geom: remove of unknown grid id %d", id))
	}
	g.removeFromCell(id, it.cell)
	it.present = false
	g.n--
}

func (g *Grid) removeFromCell(id int, k cellKey) {
	ids := g.cells[k]
	for i, other := range ids {
		if other == id {
			last := len(ids) - 1
			ids[i] = ids[last]
			g.cells[k] = ids[:last]
			return
		}
	}
	panic(fmt.Sprintf("geom: grid id %d missing from its cell", id))
}

// At returns the stored point for id.
func (g *Grid) At(id int) (Point, bool) {
	if it := g.item(id); it != nil {
		return it.p, true
	}
	return Point{}, false
}

// ForEachInRange calls fn for every stored point within distance r of p
// (inclusive, matching the radio's unit-disc predicate). Cells are
// visited in row-major order; within a cell the visit order follows the
// mutation history. Both orders are deterministic but unspecified —
// callers needing a canonical order must sort.
func (g *Grid) ForEachInRange(p Point, r float64, fn func(id int, q Point)) {
	if r < 0 {
		return
	}
	lo := g.keyFor(Point{X: p.X - r, Y: p.Y - r})
	hi := g.keyFor(Point{X: p.X + r, Y: p.Y + r})
	r2 := r * r
	for cy := lo.cy; cy <= hi.cy; cy++ {
		for cx := lo.cx; cx <= hi.cx; cx++ {
			for _, id := range g.cells[cellKey{cx: cx, cy: cy}] {
				if q := g.items[id].p; q.Dist2(p) <= r2 {
					fn(id, q)
				}
			}
		}
	}
}

// AppendCandidatesInRange appends to buf the id of every point stored
// in a cell overlapping the axis-aligned square of half-width r around
// p — a superset of the disc of radius r — and returns the extended
// slice. It skips the exact distance check: the radio layer uses it
// when the stored points are slightly stale and the precise predicate
// must run against fresh positions. Passing a reused buffer keeps the
// hot path allocation-free.
func (g *Grid) AppendCandidatesInRange(p Point, r float64, buf []int) []int {
	if r < 0 {
		return buf
	}
	lo := g.keyFor(Point{X: p.X - r, Y: p.Y - r})
	hi := g.keyFor(Point{X: p.X + r, Y: p.Y + r})
	for cy := lo.cy; cy <= hi.cy; cy++ {
		for cx := lo.cx; cx <= hi.cx; cx++ {
			buf = append(buf, g.cells[cellKey{cx: cx, cy: cy}]...)
		}
	}
	return buf
}
