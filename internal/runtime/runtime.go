// Package runtime defines the boundary between the protocol engines and
// whatever executes them. What a node's network layer takes from below
// it — a monotonic clock, timer arm/cancel with the kernel's pooled
// value handles, one-hop packet transmission, and the node's own
// identity — is the Runtime interface, with two implementations:
//
//   - *mac.DCF, the simulated node's 802.11 MAC on the shared
//     radio.Medium, whose clock and timers are the sim.Scheduler's. It
//     is the path every scenario and golden digest runs through.
//   - netrt.Node runs a node in real time: wall-clock timers over the
//     same pooled timer wheel, and frames over a live transport (UDP
//     sockets, or an in-process channel hub for hermetic tests).
//
// The engines themselves (aodv, maodv, odmrp, flood, gossip) depend
// only on this package's Clock plus the node.Stack network layer, so
// one protocol codebase is both simulatable and deployable — the
// "reproduction to system" step of the ROADMAP.
package runtime

import (
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// Clock is the time and timer surface the protocol engines program
// against. Timestamps are sim.Time: nanoseconds since the start of the
// run under both runtimes (the simulator's virtual clock, or scaled
// wall time since boot under netrt). Timers are the kernel's pooled
// value handles — Cancel/Done/Fired work identically everywhere.
//
// *sim.Scheduler satisfies Clock natively; the real-time runtime
// embeds one as its timer wheel and advances it to the wall clock.
type Clock interface {
	// Now returns the current time.
	Now() sim.Time
	// After schedules fn to run d after the current time. A negative d
	// fires at the current time; callbacks run on the node's event
	// loop, never concurrently with other callbacks of the same node.
	After(d sim.Time, fn func()) sim.Timer
	// At schedules fn at an absolute time; times in the past are
	// clamped to the present.
	At(t sim.Time, fn func()) sim.Timer
}

// *sim.Scheduler is the canonical Clock; both runtimes route timers
// through one.
var _ Clock = (*sim.Scheduler)(nil)

// ReceiveFunc handles a packet arriving over the link layer. from is
// the link-level transmitter (the previous hop); broadcast reports
// whether the frame was link-addressed to everyone rather than to this
// node specifically.
//
// The packet belongs to the runtime, is read-only, and is valid until
// the handler returns: Clone it, or copy a body value, to keep it. The
// simulator hands one *Packet to every receiver of a frame, and the
// sender rebuilds it once the frame is off the air; netrt decodes every
// kind into loop-owned storage the next frame of that kind overwrites.
type ReceiveFunc func(p *pkt.Packet, from pkt.NodeID, broadcast bool)

// SendDoneFunc hands back a packet the link accepted, with its fate, at
// the first moment the link will never read it again; it is the one
// release point of the send side. ok is false when the link gave up on
// the frame (MAC retry exhaustion); the routing protocols turn that into
// link-failure handling and may send the same packet again. Runtimes
// without delivery feedback (plain UDP) never report failures.
//
// The send-side contract mirrors ReceiveFunc's: Send takes the packet,
// and from then until this callback returns it to the sender, the link
// owns it and the sender must neither write nor keep it. A packet Send
// refuses (false) never left the sender. After ok the sender may
// rebuild the packet for a later send:
//
//   - the simulated MAC (*mac.DCF) reports when the frame is
//     finished and off the air, after the radio has handed it to every
//     receiver — for a late ACK, when its retransmission's airtime ends;
//   - netrt reports before Send returns, since the frame is encoded
//     then and the bytes are the transport's.
type SendDoneFunc func(p *pkt.Packet, to pkt.NodeID, ok bool)

// Runtime is everything one node's network layer takes from the
// machinery beneath it. Implementations are single-node: each simulated
// or live node owns one Runtime value.
type Runtime interface {
	Clock

	// ID returns this node's address.
	ID() pkt.NodeID

	// Send hands one packet to the link for transmission to linkDst
	// (pkt.Broadcast for one-hop broadcast). It reports whether the
	// link accepted the frame — a full MAC queue or a closed transport
	// refuses, and the caller accounts the reject. An accepted packet is
	// the link's until SendDoneFunc hands it back, which may happen
	// before Send returns.
	Send(p *pkt.Packet, linkDst pkt.NodeID) bool

	// Bind installs the network layer's receive and send-completion
	// handlers. It must be called exactly once, before any traffic
	// flows; the constructor of node.Stack does it.
	Bind(onReceive ReceiveFunc, onSendDone SendDoneFunc)
}
