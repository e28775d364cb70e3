// Package mac implements a simplified IEEE 802.11 DCF MAC on top of the
// radio medium, matching the paper's simulation environment ("the MAC
// layer protocol used was IEEE 802.11 and the bandwidth of the wireless
// medium was assumed to be 2 Mbps").
//
// The model keeps the DCF behaviours the paper's loss processes depend on
// and omits the rest:
//
//   - physical carrier sense with DIFS deferral and slotted binary
//     exponential backoff (CWmin 31 .. CWmax 1023);
//   - unicast frames are acknowledged after SIFS and retransmitted up to
//     retryLimit times; exhaustion is reported to the network layer, which
//     is how AODV/MAODV detect broken links;
//   - broadcast frames are sent once, unacknowledged — the fundamental
//     unreliability that costs MAODV tree forwarding its packets;
//   - receiver-side duplicate filtering for retransmitted unicast frames.
//
// There is no RTS/CTS handshake and so no NAV: the paper's 64-byte
// payloads sit far below any realistic RTS threshold.
package mac

import (
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/runtime"
	"anongossip/internal/sim"
	"anongossip/internal/table"
)

// The DCF parameters: 802.11 DSSS at the paper's 2 Mbps. Every node
// runs on them.
const (
	// bitRate is the channel rate in bits/s.
	bitRate = 2e6
	// slotTime, sifs and difs are the 802.11 interframe timings.
	slotTime = 20 * time.Microsecond
	sifs     = 10 * time.Microsecond
	difs     = 50 * time.Microsecond
	// cwMin and cwMax bound the contention window (in slots).
	cwMin = 31
	cwMax = 1023
	// retryLimit is the maximum number of retransmissions for a unicast
	// frame before the MAC reports failure.
	retryLimit = 7
	// phyOverhead is the preamble+PLCP header time prefixed to every
	// frame.
	phyOverhead = 192 * time.Microsecond
	// headerBytes is the MAC header+FCS size added to every data frame.
	headerBytes = 28
	// ackBytes is the size of an ACK control frame.
	ackBytes = 14
	// QueueCap bounds the transmit queue; excess frames are dropped.
	QueueCap = 100
)

// Config is the argument New takes and ignores: the DCF runs on the
// package constants above. It stays while bench/ passes it.
type Config struct{}

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// frameKind discriminates MAC frames.
type frameKind uint8

const (
	frameData frameKind = iota + 1
	frameAck
)

// frame is the MAC PDU exchanged over the radio. Frames go on the air
// by pointer, so putting one there boxes nothing, and are read-only
// while they are there. Receivers copy what they need during the
// reception and never keep the pointer: the storage behind it is the
// sender's, and the sender reuses it (see outgoing and DCF.resp).
type frame struct {
	kind    frameKind
	src     pkt.NodeID
	dst     pkt.NodeID
	seq     uint16
	payload *pkt.Packet // nil for an ACK
}

// Stats aggregates per-node MAC counters.
type Stats struct {
	// UnicastSent counts first transmissions (not retries) of unicast
	// frames.
	UnicastSent uint64
	// Retries counts retransmission attempts.
	Retries uint64
	// Failures counts unicast frames dropped after the retry limit.
	Failures uint64
	// QueueDrops counts frames rejected because the queue was full.
	QueueDrops uint64
	// DupsFiltered counts retransmitted unicast frames suppressed by the
	// receiver-side duplicate filter.
	DupsFiltered uint64
	// Delivered counts frames handed up to the network layer.
	Delivered uint64
	// BackoffWait accumulates the contention wait this node armed
	// (DIFS + drawn backoff slots per cycle) — the time the MAC spent
	// standing off the channel rather than occupying it.
	BackoffWait time.Duration
	// ElidedEvents counts MAC events folded out of the kernel: the
	// airtime-end step the eager code scheduled per data
	// transmission, now run from the radio's TxDone hook (one per
	// completed transmission), and contention-step timers (defer
	// wakes, backoff expiries, pending response transmissions)
	// cancelled when their frame completed out from under them —
	// events that would have fired as inflight-guarded no-ops before
	// the MAC re-armed lazily. Adding it to the scheduler's processed
	// count keeps the logical event total (and the golden digests
	// pinned on it) identical to the eager-timer code. Cancels whose
	// deadline lies beyond the horizon set with SetHorizon are
	// excluded: the old code never reached those events either.
	ElidedEvents uint64
	// Channel attributes every transmission this MAC started, ACKs
	// included, to its layer: airtime, count and bytes (MAC framing
	// included). ACKs are its metrics.LayerMAC count; every other
	// layer's count is data-frame attempts, retries included.
	Channel metrics.ChannelCounters
}

// Callbacks connects the MAC to the network layer.
type Callbacks struct {
	// OnReceive delivers a received packet. from is the transmitting
	// neighbour (the previous hop, not the network-layer source).
	// broadcast reports whether the frame was link-layer broadcast.
	OnReceive func(p *pkt.Packet, from pkt.NodeID, broadcast bool)
	// OnSendDone hands a queued packet back with its fate, once the MAC
	// will never read it again: ok is true when the frame was
	// acknowledged (or broadcast and therefore fire-and-forget), false
	// when the retry limit was exhausted. Routing layers use failures as
	// link-break indications. An acknowledged frame whose own
	// retransmission is still on the air comes back when that leaves the
	// air (see TxDone), not when the ACK arrives.
	OnSendDone func(p *pkt.Packet, to pkt.NodeID, ok bool)
}

// queued is a frame waiting behind the head one: its packet, link
// destination and MAC sequence number, held by value in the queue.
type queued struct {
	p   *pkt.Packet
	dst pkt.NodeID
	seq uint16
}

// outgoing is the head frame with its MAC bookkeeping, one of the DCF's
// two head records. The data frame transmitted for it — on every
// attempt — is &frm, which nothing writes until the record is released:
// once its frame is finished and &frm is off the air (see finish and
// TxDone).
type outgoing struct {
	frm     frame
	attempt int
	cw      int
}

// response is one pending ACK: what the frame will carry when its SIFS
// wait ends.
type response struct {
	dst pkt.NodeID
	seq uint16
}

// fifo is a queue over a reused backing array. pop advances head and
// zeroes the slot instead of re-slicing, and a drained queue starts
// over at the front, so the array is reused rather than regrown an
// element at a time; a queue that never drains slides its elements down
// over the popped slots before growing past them.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// stepPhase says what a firing of the contention-step timer means; it
// is written together with the timer on every arm, so the single
// reusable stepFn closure can dispatch without capturing state.
type stepPhase uint8

const (
	// stepDeferWake: the channel was busy; wake at the sensed busy-until
	// time and re-sample.
	stepDeferWake stepPhase = iota
	// stepBackoff: DIFS + backoff expired; transmit if still idle, else
	// start the defer cycle over.
	stepBackoff
)

// DCF is one node's MAC entity. It is also the simulated node's
// runtime: the network layer binds its handlers here and reaches the
// scheduler's clock and timers through it.
type DCF struct {
	id    pkt.NodeID
	sched *sim.Scheduler
	rng   *sim.RNG
	tr    *radio.Transceiver
	cb    Callbacks

	// queue holds the frames waiting behind inflight, the head frame,
	// which is one of the two records in head. lateOut is a record
	// finished while its own data frame was still on the air (a late ACK
	// during the retransmission): the next head frame takes the other
	// record, and TxDone releases this one once the radio has walked the
	// frame's receivers.
	queue    fifo[queued]
	head     [2]outgoing
	inflight *outgoing
	lateOut  *outgoing
	// busy is true from the moment a frame reaches the head of the queue
	// until its final success/failure, covering defer, backoff, airtime
	// and ACK wait.
	busy bool

	nextSeq  uint16
	ackTimer sim.Timer
	// step is the pending timer driving the head frame's contention
	// cycle (defer wake, backoff expiry, or pending response). When the
	// frame completes early — a late ACK during re-contention, say —
	// finish cancels it instead of letting it fire as an
	// inflight-guarded no-op; see Stats.ElidedEvents.
	//
	// The timer is always armed with the reusable stepFn closure; what
	// a firing means is carried in (stepKind, stepOut), written together
	// with every arm. At most one step is pending at a time, so the
	// fields cannot be clobbered under a live timer.
	step     sim.Timer
	stepKind stepPhase
	stepOut  *outgoing
	stepFn   func()
	// ackOut is the frame the ACK timeout guards; like stepOut it lets
	// the timer share one closure instead of capturing per arm.
	ackOut *outgoing
	ackFn  func()
	// resps holds the ACKs waiting out their SIFS. Every one is
	// armed SIFS after the reception it answers, with the one respFn
	// closure, so the timers fire in FIFO order and each pops the head.
	resps  fifo[response]
	respFn func()
	// resp is the one frame responses go on the air from, rewritten
	// only once the previous response has left the air and the radio has
	// walked its receivers. A response that fires while the node
	// transmits is dropped, so the earliest one goes out is at the instant
	// the previous one leaves the air. Its SIFS wait then began an ACK
	// airtime less SIFS after the previous one started: after that start,
	// since an ACK outlasts SIFS. The radio armed its finish walk at that
	// start, and the kernel runs same-instant events in the order they
	// were armed, so the walk has run. TestBackToBackAcks pins this.
	resp frame
	// vtxOut/vtxAt describe the virtual airtime-end step: since the
	// radio's finish processing ends at the exact schedule position of a
	// timer armed right after StartTx, the MAC no longer schedules one —
	// it records what the timer would have done and runs it from the
	// radio's TxDone hook, counting one elided event per transmission
	// (see Stats.ElidedEvents). vtxOut is nil when no transmission is in
	// the air.
	vtxOut *outgoing
	vtxAt  sim.Time
	// horizon bounds elision accounting; see SetHorizon.
	horizon sim.Time
	// Folded contention countdown (DESIGN.md §4). folding is set when
	// the transceiver can bound neighbourhood motion; foldOK says the
	// closure proofs covering the pending step still hold; foldVK is the
	// largest proven busy-until learned since the step was armed;
	// foldBase anchors the prediction window — every folded decision
	// must stay within radio.CarrierPredictWindow of the probe that
	// established the closure.
	folding  bool
	foldOK   bool
	foldVK   sim.Time
	foldBase sim.Time
	// lastSeq filters duplicate unicast frames per sender, keyed by
	// NodeID.Uint64.
	lastSeq table.Table[uint16]

	stats Stats
}

// New attaches a MAC entity for node id to the medium. pos supplies the
// node's mobility model to the radio layer. It fails when the medium
// already has a transceiver for id (radio.ErrDuplicateNode).
func New(sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID,
	pos mobility.Model, _ Config, cb Callbacks) (*DCF, error) {
	return newDCF(sched, rng, medium, id, pos, cb, true)
}

// newDCF builds the MAC with the folded contention countdown (DESIGN.md
// §4) on or off. Production always folds; fold=false is the eager
// reference schedule the in-package differential tests compare against.
func newDCF(sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID,
	pos mobility.Model, cb Callbacks, fold bool) (*DCF, error) {
	d := &DCF{
		id:    id,
		sched: sched,
		rng:   rng,
		cb:    cb,
	}
	// One closure per timer role for the DCF's whole lifetime: arming a
	// contention step or a timeout passes these instead of allocating a
	// fresh capture per arm (thousands per node per run).
	d.stepFn = d.onStep
	d.ackFn = d.onAckTimeout
	d.respFn = d.onResponse
	tr, err := medium.AttachReceiver(id, pos, d)
	if err != nil {
		return nil, err
	}
	d.tr = tr
	if fold {
		// Fold the contention countdown: the radio notifies carrier
		// onsets instead of the MAC polling with a wake per busy
		// period. This first registration raises the medium's carrier
		// radius; then the DCF listens only while a step is pending.
		tr.SetCarrierListener(d)
		tr.SetCarrierListener(nil)
		d.folding = true
	}
	return d, nil
}

var (
	_ runtime.Runtime = (*DCF)(nil)
	_ radio.Receiver  = (*DCF)(nil)
)

// ID returns the node ID.
func (d *DCF) ID() pkt.NodeID { return d.id }

// Now implements runtime.Clock.
func (d *DCF) Now() sim.Time { return d.sched.Now() }

// After implements runtime.Clock.
func (d *DCF) After(dt sim.Time, fn func()) sim.Timer { return d.sched.After(dt, fn) }

// Bind implements runtime.Runtime: the handlers replace the Callbacks
// New was given.
func (d *DCF) Bind(onReceive runtime.ReceiveFunc, onSendDone runtime.SendDoneFunc) {
	d.cb = Callbacks{OnReceive: onReceive, OnSendDone: onSendDone}
}

// SetHorizon tells the MAC when the run ends, so cancelled step timers
// scheduled past the end — events the eager-timer code would never
// have executed — are excluded from Stats.ElidedEvents. A zero horizon
// (the default) counts every cancel.
func (d *DCF) SetHorizon(t sim.Time) { d.horizon = t }

// elideStep cancels the pending contention-step timer, if any, and
// accounts for the no-op event the cancel elides.
func (d *DCF) elideStep() {
	if d.step.IsZero() {
		return
	}
	at := d.step.At()
	d.step.Cancel()
	if d.step.Cancelled() && (d.horizon == 0 || at <= d.horizon) {
		d.stats.ElidedEvents++
	}
	d.step = sim.Timer{}
	d.foldOK = false
	d.tr.SetCarrierListener(nil)
}

// listen registers for carrier onsets while the armed step is pending.
func (d *DCF) listen() {
	if d.folding {
		d.tr.SetCarrierListener(d)
	}
}

// Stats returns a copy of the MAC counters.
func (d *DCF) Stats() Stats { return d.stats }

// QueueLen returns the number of frames waiting (excluding in-flight).
func (d *DCF) QueueLen() int { return d.queue.len() }

// airtime returns the channel occupancy of a data frame carrying
// payloadBytes of network-layer payload.
func (d *DCF) airtime(payloadBytes int) sim.Time {
	bits := float64((headerBytes + payloadBytes) * 8)
	return phyOverhead + time.Duration(bits/bitRate*float64(time.Second))
}

// ackAirtime returns the channel occupancy of an ACK.
func (d *DCF) ackAirtime() sim.Time {
	bits := float64(ackBytes * 8)
	return phyOverhead + time.Duration(bits/bitRate*float64(time.Second))
}

// senseProbe reads the channel exactly and, when folding, the
// conservative reach bound that seeds the countdown's closure proof
// (radio.CarrierProbe: the latest end time any transmission currently
// on the air could still occupy this node's channel with, motion
// included).
func (d *DCF) senseProbe() (busy, reach sim.Time) {
	if d.folding {
		return d.tr.CarrierProbe()
	}
	return d.tr.CarrierBusyUntil(), 0
}

// ackTimeout is the wait after a unicast transmission before declaring the
// ACK lost.
func (d *DCF) ackTimeout() sim.Time {
	return sifs + d.ackAirtime() + 2*slotTime
}

// Send queues p for transmission to the link-layer destination dst
// (pkt.Broadcast for broadcast). It reports whether the frame was
// accepted; false means the queue was full and the packet dropped.
func (d *DCF) Send(p *pkt.Packet, dst pkt.NodeID) bool {
	if d.QueueLen() >= QueueCap {
		d.stats.QueueDrops++
		return false
	}
	d.nextSeq++
	d.queue.push(queued{p: p, dst: dst, seq: d.nextSeq})
	if !d.busy {
		d.startHead()
	}
	return true
}

// startHead begins the contention cycle for the frame at the queue head,
// in whichever head record is not lateOut.
func (d *DCF) startHead() {
	if d.queue.len() == 0 {
		d.busy = false
		return
	}
	d.busy = true
	q := d.queue.pop()
	out := &d.head[0]
	if d.lateOut == out {
		out = &d.head[1]
	}
	*out = outgoing{frm: frame{kind: frameData, src: d.id, dst: q.dst, seq: q.seq, payload: q.p}, cw: cwMin}
	d.inflight = out
	d.defer_()
}

// defer_ waits for the channel to go idle, then backs off and
// transmits.
func (d *DCF) defer_() {
	out := d.inflight
	busy, reach := d.senseProbe()
	if busy > d.sched.Now() {
		d.armWake(out, busy, reach)
		return
	}
	d.armBackoff(out, reach, true)
}

// armWake arms the defer wake at the sensed busy-until instant and
// establishes the fold closure: the probe just taken anchors the
// prediction window, and the wake may skip re-sensing if every proof
// holds until it fires.
func (d *DCF) armWake(out *outgoing, target, reach sim.Time) {
	d.stepKind, d.stepOut = stepDeferWake, out
	d.step = d.sched.At(target, d.stepFn)
	d.foldBase = d.sched.Now()
	d.foldVK = 0
	d.foldOK = d.folding && reach <= target && target <= d.foldBase+radio.CarrierPredictWindow
	d.listen()
}

// armBackoff draws the contention slots and arms the expiry. probed
// says the caller just probed the channel (reach is its closure
// bound); a proven-idle wake skips the probe and extends the closure
// it fired under, still anchored at the original probe's window.
func (d *DCF) armBackoff(out *outgoing, reach sim.Time, probed bool) {
	now := d.sched.Now()
	if probed {
		d.foldBase = now
	}
	slots := d.rng.Intn(out.cw + 1)
	wait := difs + time.Duration(slots)*slotTime
	d.stats.BackoffWait += wait
	d.stepKind, d.stepOut = stepBackoff, out
	d.step = d.sched.After(wait, d.stepFn)
	exp := now + wait
	d.foldVK = 0
	d.foldOK = d.folding && (probed || d.foldOK) && reach <= exp &&
		exp <= d.foldBase+radio.CarrierPredictWindow
	d.listen()
}

// foldIdle reports whether the folded countdown proves the channel idle
// at the firing instant, making the exact carrier read redundant: any
// invalidation since the arm cleared foldOK, every proven busy interval
// has ended (a later one would have postponed this firing past itself),
// and anything unproven never existed within reach.
func (d *DCF) foldIdle() bool {
	return d.foldOK && d.foldVK <= d.sched.Now()
}

// onStep is the single contention-step callback; (stepKind, stepOut)
// written at arm time say which transition fired.
func (d *DCF) onStep() {
	d.tr.SetCarrierListener(nil)
	out := d.stepOut
	switch d.stepKind {
	case stepDeferWake:
		if d.inflight != out {
			return
		}
		if d.foldIdle() {
			// Every proof held from arm to expiry: the exact read is
			// elided and the countdown proceeds straight to backoff.
			d.armBackoff(out, 0, false)
			return
		}
		d.defer_()
	case stepBackoff:
		if d.inflight != out {
			return
		}
		if d.foldIdle() {
			d.transmitData(out)
			return
		}
		// The channel may have become busy during the backoff; if so,
		// start over (simplification of 802.11's counter freezing).
		busy, reach := d.senseProbe()
		if busy > d.sched.Now() {
			d.armWake(out, busy, reach)
			return
		}
		d.transmitData(out)
	}
}

// CarrierOnset implements radio.CarrierListener: while a step is
// pending, the radio reports every transmission start that could occupy
// this node's channel within the prediction window. Proven in-range
// onsets advance the folded countdown's busy horizon and postpone the
// pending step in place; unproven (band) onsets invalidate the fold, so
// the step falls back to an exact carrier read — after restoring its
// original deadline, which is where the eager cycle would have re-sensed.
func (d *DCF) CarrierOnset(end sim.Time, proven bool) {
	if d.step.IsZero() || d.step.Done() {
		return
	}
	if !proven {
		if d.foldOK {
			d.foldOK = false
			d.step.Unpostpone()
		}
		return
	}
	if end > d.foldVK {
		d.foldVK = end
		d.maybePostpone()
	}
}

// maybePostpone slides the pending step to the folded busy horizon
// when the proofs allow it, flipping a backoff expiry into a defer
// wake exactly as the eager cycle's busy re-sense would have. A
// horizon beyond the prediction window cannot be proven; the fold is
// abandoned and the step restored to fire (and re-sense) at its
// original deadline.
func (d *DCF) maybePostpone() {
	if !d.foldOK {
		return
	}
	if d.foldVK <= d.step.At() {
		return
	}
	if d.foldVK > d.foldBase+radio.CarrierPredictWindow {
		d.foldOK = false
		d.step.Unpostpone()
		return
	}
	d.step.Postpone(d.foldVK)
	d.stepKind = stepDeferWake
}

// onAckTimeout declares the awaited ACK lost and retries.
func (d *DCF) onAckTimeout() {
	if out := d.ackOut; d.inflight == out && out != nil {
		d.retry(out)
	}
}

// transmitData puts the head data frame on the air; the radio's TxDone
// hook completes broadcasts and arms the ACK timer for unicast when
// the frame leaves the air.
func (d *DCF) transmitData(out *outgoing) {
	payloadSize := out.frm.payload.WireSize()
	at := d.airtime(payloadSize)
	if err := d.tr.StartTxNotify(&out.frm, at, out.frm.dst, d); err != nil {
		// Should be unreachable: the defer cycle guarantees idleness.
		// Treat as a collision-equivalent retry rather than crashing.
		d.retry(out)
		return
	}
	d.stats.Channel.ObserveTx(metrics.LayerOf(out.frm.payload.Kind), at, headerBytes+payloadSize)
	if out.attempt == 0 && out.frm.dst != pkt.Broadcast {
		d.stats.UnicastSent++
	}
	d.vtxOut, d.vtxAt = out, d.sched.Now()+at
}

// TxDone implements radio.TxDone: it runs the virtual airtime-end step
// when the radio finishes the transmission, in the exact schedule
// position the eager MAC's timer fired in. The timer it replaces
// executed as a real event, so each invocation that finds the virtual
// step still armed counts one elided event to keep the logical total
// identical. A cleared vtxOut means the frame already completed (a
// late ACK during the retransmission's airtime); the early finish
// accounted for the step, and what is left is to release its record
// and hand its packet back, now that the frame is off the air.
func (d *DCF) TxDone() {
	if out := d.lateOut; out != nil {
		d.lateOut = nil
		p, dst := out.frm.payload, out.frm.dst
		out.frm.payload = nil
		if d.cb.OnSendDone != nil {
			d.cb.OnSendDone(p, dst, true)
		}
	}
	out := d.vtxOut
	if out == nil {
		return
	}
	d.vtxOut = nil
	d.stats.ElidedEvents++
	if d.inflight != out {
		return
	}
	if out.frm.dst == pkt.Broadcast {
		d.finish(out, true)
		return
	}
	// Await the ACK.
	d.ackOut = out
	d.ackTimer = d.sched.After(d.ackTimeout(), d.ackFn)
}

// retry reschedules a unicast frame after a lost ACK, doubling the
// contention window, or fails the frame once the retry limit is reached.
func (d *DCF) retry(out *outgoing) {
	out.attempt++
	if out.attempt > retryLimit {
		d.stats.Failures++
		d.finish(out, false)
		return
	}
	d.stats.Retries++
	out.cw = min(2*(out.cw+1)-1, cwMax)
	d.defer_()
}

// elideVirtualStep accounts for a pending virtual airtime-end step on
// early completion, mirroring elideStep: the eager MAC would have
// cancelled a real timer here and counted the elision (subject to the
// same horizon bound). The radio's TxDone hook still fires at the
// airtime's end but finds vtxOut cleared and does nothing — and counts
// nothing, or the event would be accounted twice.
func (d *DCF) elideVirtualStep() {
	if d.vtxOut == nil {
		return
	}
	if d.horizon == 0 || d.vtxAt <= d.horizon {
		d.stats.ElidedEvents++
	}
	d.vtxOut = nil
}

// finish completes the head frame, releases its record — its packet
// handed back through OnSendDone and dropped, so a spare record pins
// nothing — and starts the next. Every timer that names the record is
// cancelled here, so a record reused for a later frame cannot be
// mistaken for its previous use. Only an ACK finishes a frame while it
// is on the air: the failures come after an ACK timeout, armed once the
// frame left it.
func (d *DCF) finish(out *outgoing, ok bool) {
	onAir := d.vtxOut == out
	d.elideStep()
	d.elideVirtualStep()
	d.ackTimer.Cancel()
	d.ackTimer = sim.Timer{}
	d.ackOut = nil
	d.inflight = nil
	p, dst := out.frm.payload, out.frm.dst
	if onAir {
		// A late ACK finished the frame during its own retransmission:
		// receivers still read &out.frm, and its packet, when the airtime
		// ends. TxDone releases both.
		d.lateOut = out
	} else {
		out.frm.payload = nil
		if d.cb.OnSendDone != nil {
			d.cb.OnSendDone(p, dst, ok)
		}
	}
	d.startHead()
}

// ReceiveFrame implements radio.Receiver: it handles a reception
// outcome from the radio layer. The radio calls it only for broadcasts
// and for frames addressed to this node, so every ACK and unicast data
// frame here is ours.
func (d *DCF) ReceiveFrame(raw any, _ pkt.NodeID, ok bool) {
	if !ok {
		return // corrupted receptions carry no usable frame
	}
	frm, isFrame := raw.(*frame)
	if !isFrame {
		return // foreign traffic on the medium (tests)
	}
	switch frm.kind {
	case frameAck:
		if d.inflight != nil && frm.seq == d.inflight.frm.seq {
			d.finish(d.inflight, true)
		}
	case frameData:
		d.onData(frm)
	}
}

// respond queues an ACK to go out SIFS from now.
func (d *DCF) respond(r response) {
	d.resps.push(r)
	d.sched.After(sifs, d.respFn)
}

// onResponse transmits the ACK whose SIFS wait ended — the FIFO's head
// — unless the node is mid-transmission (half-duplex; the peer will
// retry).
func (d *DCF) onResponse() {
	r := d.resps.pop()
	if d.tr.Transmitting() {
		return
	}
	at := d.ackAirtime()
	d.resp = frame{kind: frameAck, src: d.id, dst: r.dst, seq: r.seq}
	if err := d.tr.StartTxNotify(&d.resp, at, r.dst, nil); err != nil {
		return
	}
	d.stats.Channel.ObserveTx(metrics.LayerMAC, at, ackBytes)
}

func (d *DCF) onData(frm *frame) {
	if frm.dst == pkt.Broadcast {
		d.stats.Delivered++
		if d.cb.OnReceive != nil {
			d.cb.OnReceive(frm.payload, frm.src, true)
		}
		return
	}
	// Acknowledge after SIFS, a retransmission too: its first ACK was
	// lost.
	d.respond(response{dst: frm.src, seq: frm.seq})
	if d.duplicate(frm) {
		d.stats.DupsFiltered++
		return
	}
	d.stats.Delivered++
	if d.cb.OnReceive != nil {
		d.cb.OnReceive(frm.payload, frm.src, false)
	}
}

// duplicate reports whether frm repeats the last unicast data frame
// from its sender — a retransmission after a lost ACK — and records
// frm as the sender's last otherwise.
func (d *DCF) duplicate(frm *frame) bool {
	last, added := d.lastSeq.Insert(frm.src.Uint64())
	if !added && *last == frm.seq {
		return true
	}
	*last = frm.seq
	return false
}
