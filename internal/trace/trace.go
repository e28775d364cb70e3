// Package trace provides a lightweight packet-event recorder for
// debugging and demonstration. It observes the network layer of selected
// nodes (sends, deliveries, forwards) into a bounded ring buffer that can
// be dumped as text — the moral equivalent of GloMoSim's packet trace
// files.
package trace

import (
	"fmt"
	"io"
	"strings"

	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// Op is the traced operation.
type Op uint8

// Operations.
const (
	// OpSend is a locally originated transmission.
	OpSend Op = iota + 1
	// OpForward is a transit retransmission.
	OpForward
	// OpDeliver is a delivery to a protocol handler.
	OpDeliver
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpForward:
		return "FWD"
	case OpDeliver:
		return "RECV"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Event is one recorded packet operation.
type Event struct {
	At   sim.Time
	Node pkt.NodeID
	Op   Op
	Kind pkt.Kind
	Src  pkt.NodeID
	Dst  pkt.NodeID
	// Peer is the link-layer counterpart: the next hop for sends, the
	// previous hop for deliveries.
	Peer pkt.NodeID
	Size int
}

// String formats the event as one trace line.
func (e Event) String() string {
	return fmt.Sprintf("%12.6fs %6s %-5s %-10s %s->%s via %s (%dB)",
		e.At.Seconds(), e.Node, e.Op, e.Kind, e.Src, e.Dst, e.Peer, e.Size)
}

// Ring is a bounded in-memory trace. The zero value is unusable; create
// with NewRing. Events are kept in record order, which is the
// simulation's execution order.
type Ring struct {
	events   []Event // grows as events are recorded, up to capacity
	capacity int
	next     int // the oldest retained event once the ring is full
	total    uint64
}

// NewRing creates a trace holding the last capacity events. It
// allocates nothing for them up front: the ring grows as events are
// recorded, so a generous capacity costs only what a run fills.
func NewRing(capacity int) *Ring {
	return &Ring{capacity: max(capacity, 1)}
}

// Record appends an event, evicting the oldest when full.
func (r *Ring) Record(e Event) {
	r.total++
	if len(r.events) < r.capacity {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % len(r.events)
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int { return len(r.events) }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	return append(out, r.events[:r.next]...)
}

// Dump writes the retained events as text lines.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := io.WriteString(w, e.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-kind counts of the retained events.
func (r *Ring) Summary() string {
	counts := map[pkt.Kind]int{}
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d events retained (%d total):", r.Len(), r.total)
	for _, k := range pkt.Kinds() {
		if counts[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", k, counts[k])
		}
	}
	return b.String()
}
