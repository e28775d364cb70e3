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
//     RetryLimit times; exhaustion is reported to the network layer, which
//     is how AODV/MAODV detect broken links;
//   - broadcast frames are sent once, unacknowledged — the fundamental
//     unreliability that costs MAODV tree forwarding its packets;
//   - receiver-side duplicate filtering for retransmitted unicast frames;
//   - optional RTS/CTS with NAV (virtual carrier sense) above a
//     configurable threshold. The paper's configuration runs without it
//     (64-byte payloads sit far below the usual threshold); the ablation
//     benchmarks measure what the handshake would change.
package mac

import (
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
	"anongossip/internal/table"
)

// Config holds the DCF parameters. Defaults follow 802.11 DSSS at 2 Mbps.
type Config struct {
	// BitRate is the channel rate in bits/s.
	BitRate float64
	// SlotTime, SIFS and DIFS are the 802.11 interframe timings.
	SlotTime time.Duration
	SIFS     time.Duration
	DIFS     time.Duration
	// CWMin and CWMax bound the contention window (in slots).
	CWMin int
	CWMax int
	// RetryLimit is the maximum number of retransmissions for a unicast
	// frame before the MAC reports failure.
	RetryLimit int
	// PhyOverhead is the preamble+PLCP header time prefixed to every
	// frame.
	PhyOverhead time.Duration
	// HeaderBytes is the MAC header+FCS size added to every data frame.
	HeaderBytes int
	// AckBytes is the size of an ACK control frame.
	AckBytes int
	// QueueCap bounds the transmit queue; excess frames are dropped.
	QueueCap int
	// RTSThreshold enables RTS/CTS for unicast frames whose MAC-level
	// size exceeds it. RTSThresholdOff disables the exchange (the
	// paper's 64-byte payloads sit below any realistic threshold).
	RTSThreshold int
	// RTSBytes and CTSBytes size the control frames.
	RTSBytes int
	CTSBytes int
}

// RTSThresholdOff disables RTS/CTS (the 802.11 "dot11RTSThreshold off"
// convention).
const RTSThresholdOff = 1 << 16

// DefaultConfig returns 802.11 DSSS parameters at the paper's 2 Mbps.
func DefaultConfig() Config {
	return Config{
		BitRate:      2e6,
		SlotTime:     20 * time.Microsecond,
		SIFS:         10 * time.Microsecond,
		DIFS:         50 * time.Microsecond,
		CWMin:        31,
		CWMax:        1023,
		RetryLimit:   7,
		PhyOverhead:  192 * time.Microsecond,
		HeaderBytes:  28,
		AckBytes:     14,
		QueueCap:     100,
		RTSThreshold: RTSThresholdOff,
		RTSBytes:     20,
		CTSBytes:     14,
	}
}

// frameKind discriminates MAC frames.
type frameKind uint8

const (
	frameData frameKind = iota + 1
	frameAck
	frameRTS
	frameCTS
)

// frame is the MAC PDU exchanged over the radio. Frames go on the air
// by pointer, so putting one there boxes nothing, and are read-only from
// then on: receivers (and the timers they arm) keep the pointer.
type frame struct {
	kind    frameKind
	src     pkt.NodeID
	dst     pkt.NodeID
	seq     uint16
	payload *pkt.Packet // nil for control frames
	// nav is the 802.11 duration field: how long the exchange occupies
	// the channel after this frame ends. Overhearers defer (virtual
	// carrier sense).
	nav sim.Time
}

// Stats aggregates per-node MAC counters.
type Stats struct {
	// UnicastSent and BroadcastSent count first transmissions (not
	// retries).
	UnicastSent   uint64
	BroadcastSent uint64
	// Retries counts retransmission attempts.
	Retries uint64
	// Failures counts unicast frames dropped after RetryLimit.
	Failures uint64
	// QueueDrops counts frames rejected because the queue was full.
	QueueDrops uint64
	// AcksSent counts acknowledgements transmitted.
	AcksSent uint64
	// DupsFiltered counts retransmitted unicast frames suppressed by the
	// receiver-side duplicate filter.
	DupsFiltered uint64
	// Delivered counts frames handed up to the network layer.
	Delivered uint64
	// BytesSent counts all transmitted bytes including MAC framing.
	BytesSent uint64
	// RTSSent and CTSSent count RTS/CTS control frames.
	RTSSent uint64
	CTSSent uint64
	// TxAttempts counts channel-occupying transmission starts for
	// queued frames — data frames and RTS handshake openers, retries
	// included (ACK/CTS responses are counted by their own fields).
	TxAttempts uint64
	// BackoffWait accumulates the contention wait this node armed
	// (DIFS + drawn backoff slots per cycle) — the time the MAC spent
	// standing off the channel rather than occupying it.
	BackoffWait time.Duration
	// ElidedEvents counts MAC events folded out of the kernel: the
	// airtime-end step the eager code scheduled per data/RTS
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
}

// Callbacks connects the MAC to the network layer.
type Callbacks struct {
	// OnReceive delivers a received packet. from is the transmitting
	// neighbour (the previous hop, not the network-layer source).
	// broadcast reports whether the frame was link-layer broadcast.
	OnReceive func(p *pkt.Packet, from pkt.NodeID, broadcast bool)
	// OnSendDone reports the fate of a queued packet: ok is true when the
	// frame was acknowledged (or broadcast and therefore fire-and-forget),
	// false when the retry limit was exhausted. Routing layers use
	// failures as link-break indications.
	OnSendDone func(p *pkt.Packet, to pkt.NodeID, ok bool)
}

// outgoing is one queued network packet with its MAC bookkeeping. The
// data frame transmitted for it — on every attempt — is &frm, which
// nothing writes after Send builds it. That is also why records are not
// recycled: a late ACK can finish the frame while its own retransmission
// is still on the air, pointing here.
type outgoing struct {
	frm     frame
	attempt int
	cw      int
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
	// stepCtsData: CTS received; send the protected data frame after
	// SIFS.
	stepCtsData
)

// DCF is one node's MAC entity.
type DCF struct {
	id    pkt.NodeID
	cfg   Config
	sched *sim.Scheduler
	rng   *sim.RNG
	tr    *radio.Transceiver
	cb    Callbacks

	// queue[qhead:] are the frames waiting behind inflight. Popping
	// advances qhead (and nils the slot) instead of re-slicing, so the
	// backing array is reused once the queue drains rather than regrown
	// a frame at a time.
	queue    []*outgoing
	qhead    int
	inflight *outgoing
	// busy is true from the moment a frame reaches the head of the queue
	// until its final success/failure, covering defer, backoff, airtime
	// and ACK wait.
	busy bool

	nextSeq  uint16
	ackTimer sim.Timer
	ctsTimer sim.Timer
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
	// ackOut/ctsOut are the frames the ack/cts timeout timers guard;
	// like stepOut they let the timers share one closure each instead
	// of capturing per arm.
	ackOut *outgoing
	ackFn  func()
	ctsOut *outgoing
	ctsFn  func()
	// vtxOut/vtxAt/vtxKind describe the virtual airtime-end step: since
	// the radio's finish processing ends at the exact schedule position
	// of a timer armed right after StartTx, the MAC no longer schedules
	// one — it records what the timer would have done and runs it from
	// the radio's TxDone hook, counting one elided event per
	// transmission (see Stats.ElidedEvents). vtxOut is nil when no
	// transmission is in the air.
	vtxOut  *outgoing
	vtxAt   sim.Time
	vtxKind frameKind
	// horizon bounds elision accounting; see SetHorizon.
	horizon sim.Time
	// navUntil is the virtual carrier-sense deadline learned from
	// overheard RTS/CTS duration fields.
	navUntil sim.Time
	// Folded contention countdown (DESIGN.md §10). folding is set when
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
	// chm, when non-nil, receives per-layer channel-usage observations
	// for every transmission this MAC starts (see SetChannelMetrics).
	chm *metrics.ChannelCounters
}

// New attaches a MAC entity for node id to the medium. pos supplies the
// node's mobility model to the radio layer. It fails when the medium
// already has a transceiver for id (radio.ErrDuplicateNode).
func New(sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID,
	pos mobility.Model, cfg Config, cb Callbacks) (*DCF, error) {
	return newDCF(sched, rng, medium, id, pos, cfg, cb, true)
}

// newDCF builds the MAC with the folded contention countdown (DESIGN.md
// §10) on or off. Production always folds; fold=false is the eager
// reference schedule the in-package differential tests compare against.
func newDCF(sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID,
	pos mobility.Model, cfg Config, cb Callbacks, fold bool) (*DCF, error) {
	d := &DCF{
		id:    id,
		cfg:   cfg,
		sched: sched,
		rng:   rng,
		cb:    cb,
	}
	// One closure per timer role for the DCF's whole lifetime: arming a
	// contention step or a timeout passes these instead of allocating a
	// fresh capture per arm (thousands per node per run).
	d.stepFn = d.onStep
	d.ackFn = d.onAckTimeout
	d.ctsFn = d.onCtsTimeout
	tr, err := medium.Attach(id, pos, d.onRadio)
	if err != nil {
		return nil, err
	}
	d.tr = tr
	if fold && tr.CarrierPredictable() {
		// Fold the contention countdown: the radio notifies carrier
		// onsets instead of the MAC polling with a wake per busy
		// period.
		tr.SetCarrierListener(d)
		d.folding = true
	}
	return d, nil
}

// ID returns the node ID.
func (d *DCF) ID() pkt.NodeID { return d.id }

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
}

// Stats returns a copy of the MAC counters.
func (d *DCF) Stats() Stats { return d.stats }

// SetChannelMetrics points the MAC at a shared per-run channel-usage
// accumulator; every transmission start then reports its layer,
// airtime and bytes there. Nil (the default) disables the observation.
func (d *DCF) SetChannelMetrics(c *metrics.ChannelCounters) { d.chm = c }

// QueueLen returns the number of frames waiting (excluding in-flight).
func (d *DCF) QueueLen() int { return len(d.queue) - d.qhead }

// airtime returns the channel occupancy of a data frame carrying
// payloadBytes of network-layer payload.
func (d *DCF) airtime(payloadBytes int) sim.Time {
	bits := float64((d.cfg.HeaderBytes + payloadBytes) * 8)
	return d.cfg.PhyOverhead + time.Duration(bits/d.cfg.BitRate*float64(time.Second))
}

func (d *DCF) ackAirtime() sim.Time {
	return d.ctlAirtime(d.cfg.AckBytes)
}

func (d *DCF) ctlAirtime(bytes int) sim.Time {
	bits := float64(bytes * 8)
	return d.cfg.PhyOverhead + time.Duration(bits/d.cfg.BitRate*float64(time.Second))
}

// senseProbe reads the channel exactly — physical and virtual (NAV)
// carrier sense combined — and, when folding, the conservative reach
// bound that seeds the countdown's closure proof (radio.CarrierProbe:
// the latest end time any transmission currently on the air could
// still occupy this node's channel with, motion included).
func (d *DCF) senseProbe() (busy, reach sim.Time) {
	if d.folding {
		busy, reach = d.tr.CarrierProbe()
	} else {
		busy = d.tr.CarrierBusyUntil()
	}
	if d.navUntil > busy {
		busy = d.navUntil
	}
	return busy, reach
}

// ackTimeout is the wait after a unicast transmission before declaring the
// ACK lost.
func (d *DCF) ackTimeout() sim.Time {
	return d.cfg.SIFS + d.ackAirtime() + 2*d.cfg.SlotTime
}

// Send queues p for transmission to the link-layer destination dst
// (pkt.Broadcast for broadcast). It reports whether the frame was
// accepted; false means the queue was full and the packet dropped.
func (d *DCF) Send(p *pkt.Packet, dst pkt.NodeID) bool {
	if d.QueueLen() >= d.cfg.QueueCap {
		d.stats.QueueDrops++
		return false
	}
	d.nextSeq++
	out := &outgoing{
		frm: frame{kind: frameData, src: d.id, dst: dst, seq: d.nextSeq, payload: p},
	}
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		// A queue that never drains: slide the waiting frames down over
		// the popped slots instead of growing past them.
		n := copy(d.queue, d.queue[d.qhead:])
		clear(d.queue[n:])
		d.queue, d.qhead = d.queue[:n], 0
	}
	d.queue = append(d.queue, out)
	if !d.busy {
		d.startHead()
	}
	return true
}

// startHead begins the contention cycle for the frame at the queue head.
func (d *DCF) startHead() {
	if d.qhead == len(d.queue) {
		d.queue, d.qhead = d.queue[:0], 0
		d.busy = false
		return
	}
	d.busy = true
	d.inflight = d.queue[d.qhead]
	d.queue[d.qhead] = nil
	d.qhead++
	d.inflight.attempt = 0
	d.inflight.cw = d.cfg.CWMin
	d.defer_()
}

// defer_ waits for the channel (physical + NAV) to go idle, then backs
// off and transmits.
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
	wait := d.cfg.DIFS + time.Duration(slots)*d.cfg.SlotTime
	d.stats.BackoffWait += wait
	d.stepKind, d.stepOut = stepBackoff, out
	d.step = d.sched.After(wait, d.stepFn)
	exp := now + wait
	d.foldVK = 0
	d.foldOK = d.folding && (probed || d.foldOK) && reach <= exp &&
		exp <= d.foldBase+radio.CarrierPredictWindow
}

// foldIdle reports whether the folded countdown proves the channel
// (and NAV) idle at the firing instant, making the exact carrier read
// redundant: any invalidation since the arm cleared foldOK, every
// proven busy interval has ended (a later one would have postponed
// this firing past itself), and anything unproven never existed
// within reach.
func (d *DCF) foldIdle() bool {
	if !d.foldOK {
		return false
	}
	now := d.sched.Now()
	return d.foldVK <= now && d.navUntil <= now
}

// onStep is the single contention-step callback; (stepKind, stepOut)
// written at arm time say which transition fired.
func (d *DCF) onStep() {
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
			d.transmit()
			return
		}
		// The channel may have become busy during the backoff; if so,
		// start over (simplification of 802.11's counter freezing).
		busy, reach := d.senseProbe()
		if busy > d.sched.Now() {
			d.armWake(out, busy, reach)
			return
		}
		d.transmit()
	case stepCtsData:
		if d.inflight == out {
			d.transmitData(out)
		}
	}
}

// CarrierOnset implements radio.CarrierListener: the radio reports
// every transmission start that could occupy this node's channel
// within the prediction window. Proven in-range onsets advance the
// folded countdown's busy horizon and postpone the pending step in
// place; unproven (band) onsets invalidate the fold, so the step
// falls back to an exact carrier read — after restoring its original
// deadline, which is where the eager cycle would have re-sensed.
func (d *DCF) CarrierOnset(end sim.Time, proven bool) {
	if d.step.IsZero() || d.step.Done() || d.stepKind == stepCtsData {
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
	v := d.foldVK
	if d.navUntil > v {
		v = d.navUntil
	}
	if v <= d.step.At() {
		return
	}
	if v > d.foldBase+radio.CarrierPredictWindow {
		d.foldOK = false
		d.step.Unpostpone()
		return
	}
	d.step.Postpone(v)
	d.stepKind = stepDeferWake
}

// onAckTimeout declares the awaited ACK lost and retries.
func (d *DCF) onAckTimeout() {
	if out := d.ackOut; d.inflight == out && out != nil {
		d.retry(out)
	}
}

// onCtsTimeout declares the awaited CTS lost and retries.
func (d *DCF) onCtsTimeout() {
	if out := d.ctsOut; d.inflight == out && out != nil {
		d.retry(out)
	}
}

// needRTS reports whether the head frame must be protected by RTS/CTS.
func (d *DCF) needRTS(out *outgoing) bool {
	if out.frm.dst == pkt.Broadcast {
		return false
	}
	return d.cfg.HeaderBytes+out.frm.payload.WireSize() > d.cfg.RTSThreshold
}

// transmit puts the head frame (or its RTS) on the air.
func (d *DCF) transmit() {
	out := d.inflight
	if d.needRTS(out) {
		d.transmitRTS(out)
		return
	}
	d.transmitData(out)
}

// transmitRTS starts the RTS/CTS handshake for the head frame.
func (d *DCF) transmitRTS(out *outgoing) {
	dataAt := d.airtime(out.frm.payload.WireSize())
	ctsAt := d.ctlAirtime(d.cfg.CTSBytes)
	// Duration field: everything after the RTS ends.
	nav := d.cfg.SIFS + ctsAt + d.cfg.SIFS + dataAt + d.cfg.SIFS + d.ackAirtime()
	rts := &frame{kind: frameRTS, src: d.id, dst: out.frm.dst, seq: out.frm.seq, nav: nav}
	rtsAt := d.ctlAirtime(d.cfg.RTSBytes)
	if err := d.tr.StartTxNotify(rts, rtsAt, d); err != nil {
		d.retry(out)
		return
	}
	d.stats.RTSSent++
	d.stats.TxAttempts++
	d.stats.BytesSent += uint64(d.cfg.RTSBytes)
	if d.chm != nil {
		d.chm.ObserveTx(metrics.LayerMAC, rtsAt, d.cfg.RTSBytes)
	}
	// The airtime-end step is virtual: the radio's TxDone hook arms the
	// CTS timeout when the RTS leaves the air.
	d.vtxOut, d.vtxAt, d.vtxKind = out, d.sched.Now()+rtsAt, frameRTS
}

// transmitData puts the head data frame on the air; the radio's TxDone
// hook completes broadcasts and arms the ACK timer for unicast when
// the frame leaves the air.
func (d *DCF) transmitData(out *outgoing) {
	payloadSize := out.frm.payload.WireSize()
	at := d.airtime(payloadSize)
	if err := d.tr.StartTxNotify(&out.frm, at, d); err != nil {
		// Should be unreachable: the defer cycle guarantees idleness.
		// Treat as a collision-equivalent retry rather than crashing.
		d.retry(out)
		return
	}
	d.stats.BytesSent += uint64(d.cfg.HeaderBytes + payloadSize)
	d.stats.TxAttempts++
	if d.chm != nil {
		d.chm.ObserveTx(metrics.LayerOf(out.frm.payload.Kind), at, d.cfg.HeaderBytes+payloadSize)
	}
	if out.attempt == 0 {
		if out.frm.dst == pkt.Broadcast {
			d.stats.BroadcastSent++
		} else {
			d.stats.UnicastSent++
		}
	}
	d.vtxOut, d.vtxAt, d.vtxKind = out, d.sched.Now()+at, frameData
}

// TxDone implements radio.TxDone: it runs the virtual airtime-end step
// when the radio finishes the transmission, in the exact schedule
// position the eager MAC's timer fired in. The timer it replaces
// executed as a real event, so each invocation that finds the virtual
// step still armed counts one elided event to keep the logical total
// identical. A cleared vtxOut means the frame already completed (a
// late ACK during the retransmission's airtime); the early finish
// accounted for the step, and there is nothing left to do.
func (d *DCF) TxDone() {
	out := d.vtxOut
	if out == nil {
		return
	}
	d.vtxOut = nil
	d.stats.ElidedEvents++
	if d.inflight != out {
		return
	}
	switch d.vtxKind {
	case frameData:
		if out.frm.dst == pkt.Broadcast {
			d.finish(out, true)
			return
		}
		// Await the ACK.
		d.ackOut = out
		d.ackTimer = d.sched.After(d.ackTimeout(), d.ackFn)
	case frameRTS:
		// Await the CTS.
		ctsAt := d.ctlAirtime(d.cfg.CTSBytes)
		d.ctsOut = out
		d.ctsTimer = d.sched.After(d.cfg.SIFS+ctsAt+2*d.cfg.SlotTime, d.ctsFn)
	}
}

// retry reschedules a unicast frame after a lost ACK, doubling the
// contention window, or fails the frame once the retry limit is reached.
func (d *DCF) retry(out *outgoing) {
	out.attempt++
	if out.attempt > d.cfg.RetryLimit {
		d.stats.Failures++
		d.finish(out, false)
		return
	}
	d.stats.Retries++
	out.cw = min(2*(out.cw+1)-1, d.cfg.CWMax)
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

// finish completes the head frame and starts the next.
func (d *DCF) finish(out *outgoing, ok bool) {
	d.elideStep()
	d.elideVirtualStep()
	d.ackTimer.Cancel()
	d.ackTimer = sim.Timer{}
	d.ackOut = nil
	d.ctsTimer.Cancel()
	d.ctsTimer = sim.Timer{}
	d.ctsOut = nil
	d.inflight = nil
	if d.cb.OnSendDone != nil {
		d.cb.OnSendDone(out.frm.payload, out.frm.dst, ok)
	}
	d.startHead()
}

// onRadio handles a reception outcome from the radio layer.
func (d *DCF) onRadio(raw any, _ pkt.NodeID, ok bool) {
	if !ok {
		return // corrupted receptions carry no usable frame
	}
	frm, isFrame := raw.(*frame)
	if !isFrame {
		return // foreign traffic on the medium (tests)
	}
	// Virtual carrier sense: frames not for us with a duration field
	// reserve the channel.
	if frm.dst != d.id && frm.nav > 0 {
		if until := d.sched.Now() + frm.nav; until > d.navUntil {
			d.navUntil = until
			// NAV growth is own-state and exact: it feeds the folded
			// countdown the same way a proven carrier onset does.
			if d.folding && !d.step.IsZero() && !d.step.Done() && d.stepKind != stepCtsData {
				d.maybePostpone()
			}
		}
	}
	switch frm.kind {
	case frameAck:
		if frm.dst != d.id || d.inflight == nil {
			return
		}
		if frm.seq == d.inflight.frm.seq {
			d.finish(d.inflight, true)
		}
	case frameRTS:
		d.onRTS(frm)
	case frameCTS:
		if frm.dst != d.id || d.inflight == nil || d.ctsTimer.IsZero() {
			return
		}
		if frm.seq == d.inflight.frm.seq {
			d.ctsTimer.Cancel()
			d.ctsTimer = sim.Timer{}
			d.ctsOut = nil
			d.stepKind, d.stepOut = stepCtsData, d.inflight
			d.step = d.sched.After(d.cfg.SIFS, d.stepFn)
			// Response steps never fold: the data send is unconditional.
			d.foldOK = false
		}
	case frameData:
		d.onData(frm)
	}
}

// onRTS answers a request-to-send addressed to this node.
func (d *DCF) onRTS(frm *frame) {
	if frm.dst != d.id {
		return
	}
	ctsAt := d.ctlAirtime(d.cfg.CTSBytes)
	nav := frm.nav - d.cfg.SIFS - ctsAt
	if nav < 0 {
		nav = 0
	}
	d.sched.After(d.cfg.SIFS, func() {
		if d.tr.Transmitting() {
			return
		}
		cts := &frame{kind: frameCTS, src: d.id, dst: frm.src, seq: frm.seq, nav: nav}
		if err := d.tr.StartTx(cts, ctsAt); err == nil {
			d.stats.CTSSent++
			d.stats.BytesSent += uint64(d.cfg.CTSBytes)
			if d.chm != nil {
				d.chm.ObserveTx(metrics.LayerMAC, ctsAt, d.cfg.CTSBytes)
			}
		}
	})
}

func (d *DCF) onData(frm *frame) {
	if frm.dst == pkt.Broadcast {
		d.stats.Delivered++
		if d.cb.OnReceive != nil {
			d.cb.OnReceive(frm.payload, frm.src, true)
		}
		return
	}
	if frm.dst != d.id {
		return // unicast overheard in promiscuous range; ignore
	}
	// Acknowledge after SIFS unless we are mid-transmission (half-duplex;
	// the sender will retry).
	d.sched.After(d.cfg.SIFS, func() {
		if d.tr.Transmitting() {
			return
		}
		ack := &frame{kind: frameAck, src: d.id, dst: frm.src, seq: frm.seq}
		if err := d.tr.StartTx(ack, d.ackAirtime()); err == nil {
			d.stats.AcksSent++
			d.stats.BytesSent += uint64(d.cfg.AckBytes)
			if d.chm != nil {
				d.chm.ObserveTx(metrics.LayerMAC, d.ackAirtime(), d.cfg.AckBytes)
			}
		}
	})
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
