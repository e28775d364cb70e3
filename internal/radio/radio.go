// Package radio models the wireless channel: unit-disc propagation with a
// configurable transmission range (the paper sweeps 45–85 m), physical
// carrier sense, and an overlap-based collision model.
//
// The model captures the loss processes the paper's results depend on:
//
//   - two receptions overlapping in time at a receiver corrupt each other
//     (including the hidden-terminal case, where the two transmitters are
//     out of each other's range);
//   - a half-duplex node cannot receive while transmitting;
//   - a node senses the channel busy while any in-range node transmits.
//
// It deliberately omits SINR/capture effects: any overlap corrupts. This
// is the same granularity as GloMoSim's default no-capture configuration.
//
// Reception bookkeeping is batched: one finish event per transmission
// walks a per-frame receiver table, and neighbour lookups go through a
// spatial grid (index.go). The original per-receiver reception path and
// the O(N) scan survive as oracles in this package's tests (ref_test.go),
// which hold the production paths bit-identical to them.
package radio

import (
	"errors"
	"fmt"
	"math"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// Params configures the channel.
type Params struct {
	// Range is the transmission (and carrier-sense) radius in metres.
	Range float64
}

// Stats aggregates channel-level counters for the whole medium.
type Stats struct {
	// Transmissions counts StartTx calls.
	Transmissions uint64
	// Deliveries counts receptions handed up intact.
	Deliveries uint64
	// Collisions counts receptions corrupted by overlap or half-duplex
	// conflicts.
	Collisions uint64
}

// Receiver receives the outcome of a reception. frame is the value
// passed to StartTx; ok is false when the reception was corrupted. A
// frame addressed to one node (StartTxNotify's dst) reaches only that
// node's receiver; the other nodes in range still receive it — it
// occupies and corrupts their receivers and counts in their counters
// and the medium's — but their receivers are not called. It is an
// interface rather than a func so the finish walk calls through the
// transceiver's own words, with no per-node closure to load first (the
// MAC attaches itself, DESIGN.md §6).
type Receiver interface {
	ReceiveFrame(frame any, from pkt.NodeID, ok bool)
}

// Handler is a Receiver written as a func; a nil Handler ignores every
// frame.
type Handler func(frame any, from pkt.NodeID, ok bool)

// ReceiveFrame implements Receiver.
func (h Handler) ReceiveFrame(frame any, from pkt.NodeID, ok bool) {
	if h != nil {
		h(frame, from, ok)
	}
}

// CarrierPredictWindow bounds how far ahead CarrierProbe's closure
// bound and CarrierOnset's proven classification remain valid: both
// account for node motion by inflating the carrier-sense radius by
// maxSpeed·CarrierPredictWindow, so a prediction about any instant
// within the window is conservative no matter how the node moves.
// Predictions past the window are unsound and callers must fall back
// to an exact read. 25 ms comfortably covers every MAC countdown (the
// longest is DIFS + CWMax slots ≈ 20.5 ms) while keeping the inflation
// small (25 cm at the experiments' fastest 10 m/s sweep, against a
// 45–85 m radius), so the uncertainty band stays rare.
const CarrierPredictWindow = 25 * time.Millisecond

// CarrierListener receives conservative channel-onset notifications —
// the radio-side half of the MAC's folded contention countdown
// (DESIGN.md §10). The medium invokes it during StartTx processing for
// every listener the new transmission could possibly reach within
// CarrierPredictWindow. proven means the listener is guaranteed to
// sense this carrier at every instant it could query before the window
// expires (the transmitter is at least maxSpeed·window inside the
// sensing radius); onsets from the surrounding uncertainty band arrive
// with proven == false and must invalidate any folded prediction.
// Listeners run inside StartTx and may only touch their own node's
// state.
type CarrierListener interface {
	CarrierOnset(end sim.Time, proven bool)
}

// TxDone is the transmitter-side completion hook for StartTxNotify.
// TxDone runs when the transmission's finish processing completes — at
// the tail of the per-frame table walk — which is exactly where a timer
// the transmitter armed for the airtime's end would run: the kernel
// allocates that timer's sequence number immediately after the finish
// event's, so nothing can order between them. Folding the timer into
// the hook is therefore schedule-transparent; the MAC uses it to elide
// one event per data transmission (see mac.Stats.ElidedEvents).
// It is an interface rather than a func so callers can pass a
// long-lived receiver without allocating a closure per transmission.
type TxDone interface {
	TxDone()
}

// transmission is one frame on the air. Records are pooled by the
// medium: a transmission is recycled once its finish processing (the
// table walk) has completed, at which point nothing references it any
// more.
type transmission struct {
	from  *Transceiver
	frame any
	// dst is the link destination: the one node whose receiver the
	// finish walk calls, or pkt.Broadcast for all of them.
	dst    pkt.NodeID
	start  sim.Time
	end    sim.Time
	origin geom.Point
	// id is stamped once, when the pool first makes the record, and
	// stays with it across reuse: the pool only grows when every record
	// is on the air, so ids are bounded by the peak number of concurrent
	// transmissions and gridIndex can key slices by them. slot is the
	// record's position in gridIndex's active slice.
	id   int
	slot int
	// finish is the record's finish event, m.finishTx(tx) bound once
	// when the record is made, so putting the frame on the air schedules
	// it without building a closure.
	finish func()
	// recvs is the receiver table: one value entry per in-range
	// receiver, in attach order, built at StartTx and walked by the
	// single finish event. The slice's capacity survives pooling, so
	// steady-state transmissions allocate nothing.
	recvs []recvEntry
	// done is the transmitter's completion hook (StartTxNotify), invoked
	// after finish processing retires the transmission. Nil for plain
	// StartTx.
	done TxDone
}

// recvEntry is one receiver-table row: the receiver by attach index
// (indices, not pointers, keep the table a flat pointer-light value
// slice) plus the corruption verdict already known when the
// transmission started. Interference that happens while the frame is in
// the air is detected at finish time from the receiver's counters.
type recvEntry struct {
	rcv       int32
	corrupted bool
}

// skinDiv sets the neighbour tables' skin, Range/skinDiv: how far a
// transmitter and a neighbour may close or open, in total, before the
// table is rebuilt. Every value from Range/8 to Range/128 runs the
// paper's speeds equally fast (EXPERIMENTS.md hot-path ledger, §W), so
// it is not a knob.
const skinDiv = 32

// nbrEntry is one row of a transceiver's certified neighbour table: a
// node, by attach index, that was within Range + predEps + skin of the
// owner when the table was built. While the table is valid (see
// startTxBatch) the distance between the two has changed by at most
// skin, so a certain entry — built at most Range − predEps − skin away
// — is in range and proven at every such instant whatever its position,
// an uncertain one takes the exact addReceiver step, and a node left
// out can neither receive nor sit in its listener's onset band.
type nbrEntry struct {
	rcv     int32
	certain bool
}

// Medium is the shared channel all transceivers attach to.
type Medium struct {
	sched  *sim.Scheduler
	params Params
	nodes  []*Transceiver
	byID   map[pkt.NodeID]*Transceiver
	index  NeighborIndex
	stats  Stats

	// txFree pools transmission records (and their receiver tables);
	// txMade counts the records ever made and stamps their ids.
	txFree []*transmission
	txMade int
	// rxTx is the transmission whose receiver table StartTx is building,
	// nil outside that walk. The index visits candidates through the one
	// long-lived nbrVisit callback (m.addNeighbour), which finds its
	// per-walk state here instead of in a closure made per frame.
	rxTx     *transmission
	nbrVisit func(*Transceiver)
	// activeTx counts transmissions currently on the air — incremented
	// at StartTx, decremented when the finish processing retires the
	// record. It is the in-flight gauge a metrics window reads at its end.
	activeTx int
	// elided counts the per-receiver finish events folded into
	// per-frame events; see ElidedEvents.
	elided uint64
	// carrierEps is the largest motion-uncertainty inflation among
	// attached carrier listeners (maxSpeed·CarrierPredictWindow); the
	// StartTx walks widen their candidate radius by it so band onsets
	// reach every listener they might concern.
	carrierEps float64
	// Neighbour tables (nbrEntry). skinOut is skin on the conservative
	// side of the class thresholds: ×(1+1e-6) for rounding in the
	// validity product, + 1 µm for rounding in positions and for
	// mobility.Waypoint's whole-nanosecond legs. maxSpeed is the largest
	// speed bound attached. Attach and a raised carrierEps bump nbrGen,
	// which outdates every table.
	skin, skinOut float64
	maxSpeed      float64
	nbrGen        uint32
}

// NewMedium creates a channel managed by sched. The range sizes the
// neighbour grid's cells, so it must be positive and finite; anything
// else is a programming error and panics.
func NewMedium(sched *sim.Scheduler, params Params) *Medium {
	if !(params.Range > 0) || math.IsInf(params.Range, 1) {
		panic(fmt.Sprintf("radio: transmission range %v is not positive and finite", params.Range))
	}
	return newMedium(sched, params, newGridIndex(sched, params.Range))
}

// newMedium builds a medium over the given neighbour index; the
// differential tests use it to run the brute-force reference.
func newMedium(sched *sim.Scheduler, params Params, index NeighborIndex) *Medium {
	m := &Medium{sched: sched, params: params, index: index, byID: make(map[pkt.NodeID]*Transceiver)}
	m.skin = params.Range / skinDiv
	m.skinOut = m.skin*(1+1e-6) + 1e-6
	m.nbrVisit = m.addNeighbour
	return m
}

// Stats returns a copy of the channel counters.
func (m *Medium) Stats() Stats { return m.stats }

// ActiveTx returns the number of transmissions currently on the air.
func (m *Medium) ActiveTx() int { return m.activeTx }

// ElidedEvents returns the number of per-receiver reception events
// folded into per-frame finish events. Adding it to the scheduler's
// processed count yields the logical event total — the number of events
// a one-event-per-receiver model executes for the same run — which
// keeps event-count metrics and golden digests comparable with it.
func (m *Medium) ElidedEvents() uint64 { return m.elided }

// ErrDuplicateNode reports an Attach with a node ID that is already
// attached to the medium. Node IDs key receiver dispatch and per-node
// statistics, so a duplicate always indicates a misconfigured scenario.
var ErrDuplicateNode = errors.New("radio: node already attached")

// Attach registers a transceiver for a node whose receptions go to h
// (see AttachReceiver).
func (m *Medium) Attach(id pkt.NodeID, pos mobility.Model, h Handler) (*Transceiver, error) {
	return m.AttachReceiver(id, pos, h)
}

// AttachReceiver registers a transceiver for a node. rx, when non-nil,
// is called at the end of each reception, inside the simulation event
// loop. Attaching the same node ID twice fails with ErrDuplicateNode,
// and a model whose MaxSpeed is NaN, negative or infinite fails too:
// the grid and the neighbour tables need a finite bound.
func (m *Medium) AttachReceiver(id pkt.NodeID, pos mobility.Model, rx Receiver) (*Transceiver, error) {
	if _, dup := m.byID[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	spd := pos.MaxSpeed()
	if !(spd >= 0) || math.IsInf(spd, 1) {
		return nil, fmt.Errorf("radio: node %s declares speed bound %v m/s, want finite and non-negative", id, spd)
	}
	t := &Transceiver{
		id: id, medium: m, pos: pos, rx: rx,
		idx: int32(len(m.nodes)),
		// lastInterference must predate every possible transmission
		// start; simulation time is never negative.
		lastInterference: -1,
		maxSpeed:         spd,
		predEps:          spd * CarrierPredictWindow.Seconds(),
	}
	m.maxSpeed = max(m.maxSpeed, spd)
	m.nbrGen++
	t.probeVisit = t.probeTx
	m.nodes = append(m.nodes, t)
	m.byID[id] = t
	m.index.Attach(t)
	return t, nil
}

// acquireTx pops a pooled transmission record (or makes the pool's
// first occupants, stamping each with its permanent id and finish
// event).
func (m *Medium) acquireTx() *transmission {
	n := len(m.txFree)
	if n == 0 {
		tx := &transmission{id: m.txMade}
		tx.finish = func() { m.finishTx(tx) }
		m.txMade++
		return tx
	}
	tx := m.txFree[n-1]
	m.txFree = m.txFree[:n-1]
	return tx
}

// releaseTx recycles a finished transmission, dropping its references
// so pooled records pin neither frames nor transceivers.
func (m *Medium) releaseTx(tx *transmission) {
	tx.from, tx.frame, tx.done = nil, nil, nil
	tx.recvs = tx.recvs[:0]
	m.txFree = append(m.txFree, tx)
}

// ErrAlreadyTransmitting reports a StartTx while a previous transmission
// from the same transceiver is still on the air. The MAC layer serialises
// transmissions, so hitting this indicates a MAC bug.
var ErrAlreadyTransmitting = errors.New("radio: transceiver already transmitting")

// Transceiver is one node's attachment to the medium.
type Transceiver struct {
	id     pkt.NodeID
	medium *Medium
	pos    mobility.Model
	rx     Receiver
	// idx is the attach-order position in medium.nodes; receiver tables
	// reference transceivers by this index.
	idx int32

	// carrier, when non-nil, receives conservative channel-onset
	// notifications (see CarrierListener). maxSpeed caches the mobility
	// model's speed bound at attach time; predEps is the
	// motion-uncertainty inflation maxSpeed·CarrierPredictWindow that
	// the onset classification and CarrierProbe's closure bound use.
	carrier  CarrierListener
	maxSpeed float64
	predEps  float64

	// nbrs is the node's certified neighbour table, built from exact
	// positions at nbrAt under the medium's generation nbrGen (never 0:
	// Attach bumps it, so a new node's empty table counts as outdated);
	// its capacity survives rebuilds.
	nbrs   []nbrEntry
	nbrAt  sim.Time
	nbrGen uint32

	// Probe scratch: CarrierProbe's index walk accumulates into these
	// fields through probeVisit (t.probeTx, bound at attach) instead of
	// per-call captures — the probe runs on every backoff arm, and
	// boxing the accumulators was a measurable share of run-phase
	// allocations. Only this node's own probes touch them.
	probeBusy, probeReach sim.Time
	probePos              geom.Point
	probeR2               float64
	probeVisit            func(*transmission)

	txEnd sim.Time // end of own in-flight transmission, 0 if idle

	// Collision state. rxInFlight counts receptions whose finish walk
	// has not yet processed them. lastInterference is the
	// time of the most recent interference event at this node — another
	// reception starting, or this node starting to transmit, while
	// receptions were in flight. A reception spanning [start, end] is
	// corrupted iff it was corrupted at start or lastInterference ≥
	// start by the time the finish walk reaches it; both updates are
	// O(1), where a per-receiver model scans a live reception list.
	rxInFlight       int32
	lastInterference sim.Time

	// Per-node counters.
	sent      uint64
	delivered uint64
	collided  uint64
}

// Transmitting reports whether the transceiver has a frame on the air.
func (t *Transceiver) Transmitting() bool {
	return t.txEnd > t.medium.sched.Now()
}

// Counters returns (frames sent, receptions delivered, receptions
// corrupted) for this transceiver.
func (t *Transceiver) Counters() (sent, delivered, collided uint64) {
	return t.sent, t.delivered, t.collided
}

// CarrierBusyUntil returns the latest end time of any in-range
// transmission (including the node's own) — the exact half of
// CarrierProbe. A result <= now means the channel is idle at the
// sensing node. The index enumerates only transmissions whose origin is
// near the node, so the cost is O(local activity), not O(all active
// transmissions).
func (t *Transceiver) CarrierBusyUntil() sim.Time {
	busy, _ := t.CarrierProbe()
	return busy
}

// SetCarrierListener registers (or clears) the channel-onset hook the
// folded contention countdown listens on while a step is pending.
func (t *Transceiver) SetCarrierListener(l CarrierListener) {
	t.carrier = l
	if l != nil && t.predEps > t.medium.carrierEps {
		t.medium.carrierEps = t.predEps
		t.medium.nbrGen++
	}
}

// CarrierListener returns the registered channel-onset hook, or nil.
func (t *Transceiver) CarrierListener() CarrierListener { return t.carrier }

// CarrierProbe returns the exact CarrierBusyUntil value together with
// a conservative closure bound: reach is the latest end time of any
// transmission already on the air that could contribute carrier at
// this node at any instant within CarrierPredictWindow, accounting for
// the node's own motion (transmission origins are fixed). For any
// target with reach <= target <= now + CarrierPredictWindow, the
// channel is guaranteed idle at target unless a transmission starts
// after now — and every such start the node could sense is reported
// through its CarrierListener. Both values come from one index walk.
func (t *Transceiver) CarrierProbe() (busy, reach sim.Time) {
	m := t.medium
	now := m.sched.Now()
	if t.txEnd > now {
		busy = t.txEnd
	}
	reach = busy
	if m.index.HasTx() {
		r := m.params.Range
		t.probeBusy, t.probeReach = busy, reach
		t.probePos, t.probeR2 = t.pos.Position(now), r*r
		m.index.ForEachTxInRange(now, t.probePos, r+t.predEps, t.probeVisit)
		busy, reach = t.probeBusy, t.probeReach
	}
	return busy, reach
}

// probeTx folds one nearby transmission into the running probe: every
// one the index yields could reach the node within the window, those
// inside the exact radius occupy its channel now.
func (t *Transceiver) probeTx(tx *transmission) {
	if tx.from == t {
		return
	}
	if tx.end > t.probeReach {
		t.probeReach = tx.end
	}
	if tx.end > t.probeBusy && t.probePos.Dist2(tx.origin) <= t.probeR2 {
		t.probeBusy = tx.end
	}
}

// notifyCarrier classifies one onset for an in-band listener: proven
// when the listener sits at least its motion inflation inside the
// sensing radius, band otherwise. d2 is the exact squared distance
// from the transmission origin to the listener's current position.
func notifyCarrier(rcv *Transceiver, d2, r float64, end sim.Time) {
	in := r - rcv.predEps
	rcv.carrier.CarrierOnset(end, in > 0 && d2 <= in*in)
}

// StartTx puts frame on the air for airtime, addressed to every node.
// Receivers are the nodes within range at the start of the
// transmission; each receives the frame (or a corruption notice) when
// the airtime elapses.
func (t *Transceiver) StartTx(frame any, airtime sim.Time) error {
	return t.StartTxNotify(frame, airtime, pkt.Broadcast, nil)
}

// StartTxNotify is StartTx with a link destination and a
// transmitter-side completion hook. Every node in range receives the
// frame, but only dst's receiver is called — every node's when dst is
// pkt.Broadcast (see Receiver). done.TxDone() (when done is non-nil)
// runs after the transmission's finish processing, in the exact
// schedule position of an airtime-end timer armed by the caller right
// after StartTx — see the TxDone doc.
func (t *Transceiver) StartTxNotify(frame any, airtime sim.Time, dst pkt.NodeID, done TxDone) error {
	tx, err := t.beginTx(frame, airtime, dst, done)
	if err != nil {
		return err
	}
	t.startTxBatch(tx)
	return nil
}

// beginTx is the reception-independent half of a transmission start:
// it validates the request, puts a pooled transmission record on the
// air and raises the transmitter's own carrier. The caller registers
// the receivers and schedules the finish.
func (t *Transceiver) beginTx(frame any, airtime sim.Time, dst pkt.NodeID, done TxDone) (*transmission, error) {
	m := t.medium
	now := m.sched.Now()
	if t.txEnd > now {
		return nil, fmt.Errorf("%w: node %s", ErrAlreadyTransmitting, t.id)
	}
	if airtime <= 0 {
		return nil, fmt.Errorf("radio: non-positive airtime %v", airtime)
	}

	tx := m.acquireTx()
	tx.from, tx.frame, tx.dst, tx.done = t, frame, dst, done
	tx.start, tx.end = now, now+airtime
	tx.origin = t.pos.Position(now)
	m.index.AddTx(tx)
	m.stats.Transmissions++
	m.activeTx++
	t.sent++
	t.txEnd = tx.end

	if t.carrier != nil {
		// The node's own transmission raises its own carrier (an ACK
		// sent while a head frame's countdown is pending); distance zero
		// makes it proven by construction.
		t.carrier.CarrierOnset(tx.end, true)
	}
	return tx, nil
}

// startTxBatch builds the per-frame receiver table and schedules the
// single finish event that will walk it. The receivers come from the
// transmitter's neighbour table, in attach order: certain entries
// straight away, uncertain ones through addReceiver's exact unit-disc
// predicate against fresh positions.
func (t *Transceiver) startTxBatch(tx *transmission) {
	m := t.medium
	// Transmitting corrupts anything this node was in the middle of
	// receiving (half-duplex): record the interference instead of
	// touching each in-flight reception.
	if t.rxInFlight > 0 {
		t.lastInterference = tx.start
	}
	// The walk's state lives in the medium, not in a closure, so walks
	// cannot nest: a carrier listener that transmitted from inside its
	// onset notification would overwrite it (and the index's scratch).
	// Listeners may only touch their own node's state; hold them to it.
	if m.rxTx != nil {
		panic(fmt.Sprintf("radio: node %s started a transmission inside node %s's receiver walk", t.id, m.rxTx.from.id))
	}
	m.rxTx = tx
	// The table stands while owner and neighbour together cannot have
	// moved more than skin since it was built.
	if t.nbrGen != m.nbrGen || (t.maxSpeed+m.maxSpeed)*(tx.start-t.nbrAt).Seconds() > m.skin {
		t.nbrs, t.nbrAt, t.nbrGen = t.nbrs[:0], tx.start, m.nbrGen
		m.index.ForEachCandidate(tx.start, tx.origin, m.params.Range+m.carrierEps+m.skinOut, m.nbrVisit)
	}
	for _, e := range t.nbrs {
		rcv := m.nodes[e.rcv]
		if !e.certain {
			m.addReceiver(rcv)
			continue
		}
		if rcv.carrier != nil {
			rcv.carrier.CarrierOnset(tx.end, true)
		}
		m.enterReceiver(rcv)
	}
	m.rxTx = nil
	m.sched.At(tx.end, tx.finish)
}

// addNeighbour is the table build's step for one candidate: classify
// it by its exact distance from m.rxTx's origin (see nbrEntry).
func (m *Medium) addNeighbour(rcv *Transceiver) {
	tx := m.rxTx
	if rcv == tx.from {
		return
	}
	d2 := rcv.pos.Position(tx.start).Dist2(tx.origin)
	if out := m.params.Range + rcv.predEps + m.skinOut; d2 > out*out {
		return
	}
	in := m.params.Range - rcv.predEps - m.skinOut
	tx.from.nbrs = append(tx.from.nbrs, nbrEntry{rcv: rcv.idx, certain: in > 0 && d2 <= in*in})
}

// addReceiver is the receiver walk's exact step for one uncertain
// neighbour of the transmission in m.rxTx: notify its carrier listener
// and, if it is in range, enter it in the receiver table.
func (m *Medium) addReceiver(rcv *Transceiver) {
	tx := m.rxTx
	now, r := tx.start, m.params.Range
	d2 := rcv.pos.Position(now).Dist2(tx.origin)
	if d2 > r*r {
		// Out of range for reception, but possibly inside a carrier
		// listener's uncertainty band: an unproven onset.
		if rcv.carrier != nil {
			if out := r + rcv.predEps; d2 <= out*out {
				rcv.carrier.CarrierOnset(tx.end, false)
			}
		}
		return
	}
	if rcv.carrier != nil {
		notifyCarrier(rcv, d2, r, tx.end)
	}
	m.enterReceiver(rcv)
}

// enterReceiver enters an in-range node in m.rxTx's receiver table.
func (m *Medium) enterReceiver(rcv *Transceiver) {
	tx, now := m.rxTx, m.rxTx.start
	// A node mid-transmission cannot hear the frame, and any receptions
	// already in flight at the receiver collide with the new one — the
	// former decides this entry now, the latter is recorded as
	// interference for the in-flight entries' walks.
	corrupted := rcv.txEnd > now || rcv.rxInFlight > 0
	if rcv.rxInFlight > 0 {
		rcv.lastInterference = now
	}
	rcv.rxInFlight++
	tx.recvs = append(tx.recvs, recvEntry{rcv: rcv.idx, corrupted: corrupted})
}

// finishTx is a transmission's single finish event: it walks the
// receiver table in attach order — the exact order a per-receiver model
// fires its events in, since those are scheduled back-to-back at
// StartTx and the kernel runs same-instant events in insertion order —
// finalises each entry's outcome, hands it to the addressee's receiver
// (every receiver's, for a broadcast), and retires the transmission.
// Receivers may call StartTx re-entrantly; entries not yet walked still
// count as in flight, so a frame transmitted mid-walk collides with
// them exactly as it would with one event per receiver.
func (m *Medium) finishTx(tx *transmission) {
	now := m.sched.Now()
	m.elided += uint64(len(tx.recvs))
	for i := range tx.recvs {
		e := tx.recvs[i]
		rcv := m.nodes[e.rcv]
		rcv.rxInFlight--
		// A node still transmitting when the frame ends cannot have
		// heard it; interference at or after the frame's start corrupts
		// (at-start equality arises only when the interferer acted
		// after this frame began within the same instant).
		corrupted := e.corrupted || rcv.lastInterference >= tx.start || rcv.txEnd > now
		if corrupted {
			rcv.collided++
			m.stats.Collisions++
		} else {
			rcv.delivered++
			m.stats.Deliveries++
		}
		if rcv.rx != nil && (tx.dst == pkt.Broadcast || tx.dst == rcv.id) {
			rcv.rx.ReceiveFrame(tx.frame, tx.from.id, !corrupted)
		}
	}
	done := tx.done
	m.index.RemoveTx(tx)
	m.releaseTx(tx)
	m.activeTx--
	if done != nil {
		done.TxDone()
	}
}

// NeighborsOf returns the IDs of all nodes currently within range of node
// id, in attach order. It is used by diagnostics and topology metrics,
// not by protocols (which must discover neighbours through the channel,
// as in the paper).
func (m *Medium) NeighborsOf(id pkt.NodeID) []pkt.NodeID {
	self, ok := m.byID[id]
	if !ok {
		return nil
	}
	now := m.sched.Now()
	p := self.pos.Position(now)
	r2 := m.params.Range * m.params.Range
	var out []pkt.NodeID
	m.index.ForEachCandidate(now, p, m.params.Range, func(t *Transceiver) {
		if t == self {
			return
		}
		if t.pos.Position(now).Dist2(p) <= r2 {
			out = append(out, t.id)
		}
	})
	return out
}

// MeanDegree returns the average neighbour count over all attached nodes
// at the current time. The Fig. 6 experiment uses it to scale range with
// node count. Positions are snapshotted once per call, so the cost is
// N·degree distance checks through the grid on top of N position
// evaluations.
func (m *Medium) MeanDegree() float64 {
	if len(m.nodes) == 0 {
		return 0
	}
	now := m.sched.Now()
	r2 := m.params.Range * m.params.Range
	pts := make([]geom.Point, len(m.nodes)) // by Transceiver.idx
	for i, t := range m.nodes {
		pts[i] = t.pos.Position(now)
	}
	var links int
	for _, self := range m.nodes {
		p := pts[self.idx]
		m.index.ForEachCandidate(now, p, m.params.Range, func(t *Transceiver) {
			if t != self && pts[t.idx].Dist2(p) <= r2 {
				links++
			}
		})
	}
	return float64(links) / float64(len(m.nodes))
}
