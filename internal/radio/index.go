package radio

import (
	"math/bits"

	"anongossip/internal/geom"
	"anongossip/internal/sim"
)

// NeighborIndex answers the medium's two spatial questions: which
// transceivers might currently be near a point, and which in-flight
// transmissions cover it. gridIndex is the only production
// implementation; the interface is the seam through which the package's
// tests run the brute-force scan (ref_test.go) against it.
//
// ForEachCandidate visits, in attach order, a superset of the
// transceivers whose position at time now lies within radius of center;
// callers must apply the exact distance predicate against fresh
// positions themselves. ForEachTxInRange visits exactly the
// transmissions still on the air at now whose origin lies within radius
// of center (origins are fixed, so the index applies the exact
// predicate); visit order is unspecified, so callers must combine
// results order-independently.
type NeighborIndex interface {
	Attach(t *Transceiver)
	ForEachCandidate(now sim.Time, center geom.Point, radius float64, fn func(*Transceiver))
	AddTx(tx *transmission)
	RemoveTx(tx *transmission)
	// HasTx reports whether any transmission is tracked at all — the
	// cheap idle-channel check carrier sensing does before computing
	// the sensing node's position.
	HasTx() bool
	ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission))
}

// gridIndex backs the medium with two spatial hashes: one over node
// positions (refreshed lazily on a time-epoch basis) and one over
// transmission origins (exact, since origins never move).
//
// Node buckets go stale as nodes move. Each mobility model reports a
// conservative max speed (mobility.Model's MaxSpeed), so a position bucketed at
// time t0 lies within maxSpeed·(now−t0) metres of the node's true
// position. The index re-buckets all nodes only when that drift bound
// would exceed `slack`, and every candidate query inflates its radius
// by `slack`; together these guarantee the candidate set is a superset
// of the true in-range set, which the caller then filters with exact
// positions. Re-bucketing is O(nodes) but runs at most once per
// slack/maxSpeed of simulated time — amortised across the many events
// in between — and moves a node between cells only when it crossed a
// cell boundary.
type gridIndex struct {
	sched *sim.Scheduler

	nodes  []*Transceiver
	grid   *geom.Grid
	slack  float64
	maxSpd float64 // max over attached nodes' speed bounds

	lastRefresh sim.Time
	refreshed   bool // lastRefresh is meaningful (first refresh happened)

	// active lists the transmissions on the air. While gridded, txGrid
	// buckets their origins under transmission.id, and txByID resolves
	// those ids back; otherwise txGrid is empty. The ids are the pooled
	// records' permanent ones, so both stay as small as the peak number
	// of concurrent transmissions.
	active  []*transmission
	txGrid  *geom.Grid
	txByID  []*transmission
	gridded bool

	scratch []int
	// seen is a reusable bitset over node ids: candidate ids are marked,
	// then visited word-by-word in ascending id (= attach) order. This
	// replaces a per-query sort with O(candidates + words) work.
	seen []uint64
}

// txScanThreshold is the active-transmission count above which the
// transmission grid exists. Carrier sensing runs on every MAC backoff
// step, and with only a handful of frames on the air a cache-friendly
// linear scan of active beats the grid's cell hashing — and so does
// not maintaining the grid at all, since every frame would pay an
// insert and a remove for queries that scan anyway. The grid pays off
// once spatial reuse puts many concurrent frames on a large field: the
// count rising past the threshold fills it with every active
// transmission, and falling to half the threshold empties it, so a
// count hovering at the threshold does not rebuild it per frame. Both
// paths apply the same exact predicate, and CarrierBusyUntil combines
// results order-independently, so the switch cannot change simulation
// results.
const txScanThreshold = 32

var _ NeighborIndex = (*gridIndex)(nil)

// newGridIndex sizes cells to the transmission range and allows node
// buckets to go stale by a quarter range before re-bucketing: queries
// then span at most a 3–4 cell-wide block while refreshes stay rare
// (e.g. every 93 s of simulated time at the paper's 75 m / 0.2 m/s
// operating point).
func newGridIndex(sched *sim.Scheduler, txRange float64) *gridIndex {
	return &gridIndex{
		sched:  sched,
		grid:   geom.NewGrid(txRange),
		slack:  txRange / 4,
		txGrid: geom.NewGrid(txRange),
	}
}

func (g *gridIndex) Attach(t *Transceiver) {
	now := g.sched.Now()
	id := len(g.nodes)
	g.nodes = append(g.nodes, t)
	for len(g.seen)*64 < len(g.nodes) {
		g.seen = append(g.seen, 0)
	}
	g.grid.Insert(id, t.pos.Position(now))
	g.maxSpd = max(g.maxSpd, t.maxSpeed)
	if !g.refreshed {
		g.refreshed = true
		g.lastRefresh = now
	}
}

// maybeRefresh re-buckets every node when the worst-case drift since
// the last refresh would exceed the query slack.
func (g *gridIndex) maybeRefresh(now sim.Time) {
	if now <= g.lastRefresh || g.maxSpd*(now-g.lastRefresh).Seconds() <= g.slack {
		return
	}
	for id, t := range g.nodes {
		g.grid.Move(id, t.pos.Position(now))
	}
	g.lastRefresh = now
}

func (g *gridIndex) ForEachCandidate(now sim.Time, center geom.Point, radius float64, fn func(*Transceiver)) {
	g.maybeRefresh(now)
	g.scratch = g.grid.AppendCandidatesInRange(center, radius+g.slack, g.scratch[:0])
	// Visit in attach order (= ascending id), which keeps reception
	// order bit-identical to a scan over all nodes: mark candidates
	// in the bitset, then walk its words lowest-id first.
	wlo, whi := len(g.seen), -1
	for _, id := range g.scratch {
		w := id >> 6
		g.seen[w] |= 1 << (uint(id) & 63)
		if w < wlo {
			wlo = w
		}
		if w > whi {
			whi = w
		}
	}
	for w := wlo; w <= whi; w++ {
		word := g.seen[w]
		if word == 0 {
			continue
		}
		g.seen[w] = 0
		base := w << 6
		for word != 0 {
			fn(g.nodes[base+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
}

func (g *gridIndex) AddTx(tx *transmission) {
	tx.slot = len(g.active)
	g.active = append(g.active, tx)
	for tx.id >= len(g.txByID) {
		g.txByID = append(g.txByID, nil)
	}
	g.txByID[tx.id] = tx
	switch {
	case g.gridded:
		g.txGrid.Insert(tx.id, tx.origin)
	case len(g.active) > txScanThreshold:
		for _, a := range g.active {
			g.txGrid.Insert(a.id, a.origin)
		}
		g.gridded = true
	}
}

func (g *gridIndex) RemoveTx(tx *transmission) {
	if tx.id >= len(g.txByID) || g.txByID[tx.id] != tx {
		return
	}
	g.txByID[tx.id] = nil
	if g.gridded {
		g.txGrid.Remove(tx.id)
	}
	// The recorded slot makes removal O(1) even with many concurrent
	// transmissions on the air.
	last := len(g.active) - 1
	moved := g.active[last]
	g.active[tx.slot] = moved
	moved.slot = tx.slot
	g.active[last] = nil
	g.active = g.active[:last]
	if g.gridded && len(g.active) <= txScanThreshold/2 {
		for _, a := range g.active {
			g.txGrid.Remove(a.id)
		}
		g.gridded = false
	}
}

func (g *gridIndex) HasTx() bool { return len(g.active) > 0 }

func (g *gridIndex) ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission)) {
	if !g.gridded {
		r2 := radius * radius
		for _, tx := range g.active {
			if tx.end <= now {
				continue
			}
			if center.Dist2(tx.origin) <= r2 {
				fn(tx)
			}
		}
		return
	}
	g.txGrid.ForEachInRange(center, radius, func(id int, _ geom.Point) {
		tx := g.txByID[id]
		if tx.end <= now {
			return
		}
		fn(tx)
	})
}
