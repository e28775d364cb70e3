package radio

import (
	"anongossip/internal/geom"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// This file holds the package's two test oracles — the original O(N)
// neighbour scan and the original one-event-per-receiver reception path
// — and the harness that builds a Medium on any combination of them.
// Neither is reachable from production code: the scan plugs in through
// newMedium's NeighborIndex parameter, the reception path through
// beginTx, the prologue it shares with StartTxNotify.

// oracle names one combination of neighbour index and reception path.
// The zero value is the production pair (grid index, batched reception).
type oracle struct {
	refRx bool // per-receiver reception path instead of the batched one
	brute bool // linear scan instead of the grid
}

// oracles lists every combination, production first. The collision
// semantics — hidden terminals, half-duplex conflicts, exact overlaps
// and exact boundaries — must be identical across all four.
var oracles = []oracle{{}, {brute: true}, {refRx: true}, {refRx: true, brute: true}}

func (o oracle) String() string {
	name := "batch/"
	if o.refRx {
		name = "ref/"
	}
	if o.brute {
		return name + "brute"
	}
	return name + "grid"
}

// testMedium is a Medium wired for one oracle combination, plus the way
// to transmit on it.
type testMedium struct {
	*Medium
	ref *refRx // nil: the production batched path
}

func newTestMedium(sched *sim.Scheduler, rangeM float64, o oracle) *testMedium {
	var index NeighborIndex = newGridIndex(sched, rangeM)
	if o.brute {
		index = &bruteIndex{}
	}
	tm := &testMedium{Medium: newMedium(sched, Params{Range: rangeM}, index)}
	if o.refRx {
		tm.ref = &refRx{m: tm.Medium, live: make(map[*Transceiver][]*reception)}
	}
	return tm
}

// startTx transmits from t, addressed to dst, over whichever reception
// path the medium was built for.
func (tm *testMedium) startTx(t *Transceiver, frame any, airtime sim.Time, dst pkt.NodeID, done TxDone) error {
	if tm.ref != nil {
		return tm.ref.startTx(t, frame, airtime, dst, done)
	}
	return t.StartTxNotify(frame, airtime, dst, done)
}

// bruteIndex is the original linear scan over all transceivers and all
// active transmissions.
type bruteIndex struct {
	nodes  []*Transceiver
	active []*transmission
}

var _ NeighborIndex = (*bruteIndex)(nil)

func (b *bruteIndex) Attach(t *Transceiver) { b.nodes = append(b.nodes, t) }

func (b *bruteIndex) ForEachCandidate(_ sim.Time, _ geom.Point, _ float64, fn func(*Transceiver)) {
	for _, t := range b.nodes {
		fn(t)
	}
}

func (b *bruteIndex) AddTx(tx *transmission) { b.active = append(b.active, tx) }

func (b *bruteIndex) RemoveTx(tx *transmission) {
	for i, a := range b.active {
		if a == tx {
			last := len(b.active) - 1
			b.active[i] = b.active[last]
			b.active[last] = nil
			b.active = b.active[:last]
			return
		}
	}
}

func (b *bruteIndex) HasTx() bool { return len(b.active) > 0 }

func (b *bruteIndex) ForEachTxInRange(now sim.Time, center geom.Point, radius float64, fn func(*transmission)) {
	r2 := radius * radius
	for _, tx := range b.active {
		if tx.end <= now {
			continue
		}
		if center.Dist2(tx.origin) <= r2 {
			fn(tx)
		}
	}
}

// reception tracks one frame arriving at one transceiver.
type reception struct {
	tx        *transmission
	corrupted bool
}

// refRx is the reference reception path: one heap-allocated reception
// and one scheduled finish event per in-range receiver per frame, plus a
// trailing event that retires the transmission, with collision state
// maintained by scanning each receiver's live reception list. Every
// receiver's reception is decided and counted; only the addressee's
// handler hears of it (every receiver's, for a broadcast).
type refRx struct {
	m    *Medium
	live map[*Transceiver][]*reception
}

func (r *refRx) startTx(t *Transceiver, frame any, airtime sim.Time, dst pkt.NodeID, done TxDone) error {
	tx, err := t.beginTx(frame, airtime, dst, done)
	if err != nil {
		return err
	}
	m, now := r.m, tx.start
	// Transmitting corrupts anything this node was in the middle of
	// receiving (half-duplex).
	for _, rec := range r.live[t] {
		rec.corrupted = true
	}

	// The index yields a position-superset in attach order; the exact
	// unit-disc predicate runs here against fresh positions.
	rng := m.params.Range
	r2 := rng * rng
	m.index.ForEachCandidate(now, tx.origin, rng+m.carrierEps, func(rcv *Transceiver) {
		if rcv == t {
			return
		}
		d2 := rcv.pos.Position(now).Dist2(tx.origin)
		if d2 > r2 {
			if rcv.carrier != nil {
				if out := rng + rcv.predEps; d2 <= out*out {
					rcv.carrier.CarrierOnset(tx.end, false)
				}
			}
			return
		}
		if rcv.carrier != nil {
			notifyCarrier(rcv, d2, rng, tx.end)
		}
		rec := &reception{tx: tx}
		// A node mid-transmission cannot hear the frame, and any
		// receptions already in progress at the receiver collide with
		// the new one.
		if rcv.txEnd > now {
			rec.corrupted = true
		}
		for _, other := range r.live[rcv] {
			other.corrupted = true
			rec.corrupted = true
		}
		r.live[rcv] = append(r.live[rcv], rec)
		m.sched.At(tx.end, func() { r.finish(rcv, rec) })
	})

	m.sched.At(tx.end, func() {
		done := tx.done
		m.index.RemoveTx(tx)
		m.releaseTx(tx)
		m.activeTx--
		if done != nil {
			done.TxDone()
		}
	})
	return nil
}

func (r *refRx) finish(t *Transceiver, rec *reception) {
	// Drop rec from the active set.
	live := r.live[t]
	for i, other := range live {
		if other == rec {
			last := len(live) - 1
			live[i] = live[last]
			live[last] = nil
			r.live[t] = live[:last]
			break
		}
	}
	// A node still transmitting when the frame ends cannot have heard it.
	if t.txEnd > r.m.sched.Now() {
		rec.corrupted = true
	}
	if rec.corrupted {
		t.collided++
		r.m.stats.Collisions++
	} else {
		t.delivered++
		r.m.stats.Deliveries++
	}
	if dst := rec.tx.dst; t.rx != nil && (dst == pkt.Broadcast || dst == t.id) {
		t.rx.ReceiveFrame(rec.tx.frame, rec.tx.from.id, !rec.corrupted)
	}
}
