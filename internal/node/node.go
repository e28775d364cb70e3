// Package node provides the per-node network layer: protocol dispatch by
// packet kind, transparent unicast forwarding through a pluggable routing
// table (AODV in this reproduction), one-hop broadcast, and the
// link-failure / neighbour-activity signals the routing protocols consume.
//
// The layer is runtime-agnostic: it programs against runtime.Runtime
// (clock, timers, one-hop send, identity), so the same stack — and every
// protocol engine above it — runs over the simulated MAC/radio
// (runtime/simrt) and over live transports (runtime/netrt) unchanged.
package node

import (
	"fmt"

	"anongossip/internal/pkt"
	rt "anongossip/internal/runtime"
	"anongossip/internal/trace"
)

// Handler processes a packet delivered to this node. from is the previous
// hop (the MAC-level transmitter).
type Handler func(p *pkt.Packet, from pkt.NodeID)

// UnicastRouter supplies next hops for transparently forwarded unicast
// packets and absorbs packets that need route discovery first.
type UnicastRouter interface {
	// NextHop returns the neighbour to forward a packet for dst through.
	NextHop(dst pkt.NodeID) (pkt.NodeID, bool)
	// QueueForRoute takes ownership of a packet that has no route,
	// typically starting a route discovery and re-sending or dropping it
	// later.
	QueueForRoute(p *pkt.Packet)
}

// NullRouter is a UnicastRouter for stacks without unicast routing: it
// never has a next hop and silently drops packets queued for discovery.
type NullRouter struct{}

// NextHop reports no route.
func (NullRouter) NextHop(pkt.NodeID) (pkt.NodeID, bool) { return 0, false }

// QueueForRoute drops the packet.
func (NullRouter) QueueForRoute(*pkt.Packet) {}

// Stats counts network-layer activity at one node.
type Stats struct {
	// Sent counts locally originated packets handed to the MAC.
	Sent uint64
	// Forwarded counts transparently forwarded unicast packets.
	Forwarded uint64
	// Delivered counts packets handed to protocol handlers.
	Delivered uint64
	// TTLDrops counts packets discarded for TTL exhaustion.
	TTLDrops uint64
	// NoHandler counts packets with no registered protocol handler.
	NoHandler uint64
	// MACRejects counts packets the MAC queue refused.
	MACRejects uint64
	// ControlBytes and PayloadBytes split transmitted network-layer bytes
	// into control overhead vs data/gossip-carried payloads (pkt.Kind
	// classification).
	ControlBytes uint64
	PayloadBytes uint64
}

// Stack is one node's network layer. It is assembled over any
// runtime.Runtime — see NewOnRuntime — and never inspects which one.
type Stack struct {
	id pkt.NodeID
	rt rt.Runtime

	router UnicastRouter
	// handlers is indexed by pkt.Kind and reaches as far as the largest
	// registered kind; nil entries have no handler. Every delivered
	// packet looks its handler up here, so it is a slice, not a map.
	handlers []Handler

	heardSubs []func(neighbor pkt.NodeID)
	failSubs  []func(neighbor pkt.NodeID, p *pkt.Packet)

	tracer func(trace.Event)

	stats Stats
}

// NewOnRuntime builds a node stack over an assembled runtime, binding
// the stack's receive and send-completion handlers to it. This is the
// constructor both the simulated and the live paths share.
func NewOnRuntime(runtime rt.Runtime) *Stack {
	s := &Stack{
		id: runtime.ID(),
		rt: runtime,
	}
	runtime.Bind(s.onReceive, s.onSendDone)
	return s
}

// ID returns the node's address.
func (s *Stack) ID() pkt.NodeID { return s.id }

// Clock exposes the runtime's clock and timer surface to protocols.
func (s *Stack) Clock() rt.Clock { return s.rt }

// Stats returns a copy of the network-layer counters.
func (s *Stack) Stats() Stats { return s.stats }

// SetRouter installs the unicast routing protocol. It must be called
// before any SendUnicast.
func (s *Stack) SetRouter(r UnicastRouter) { s.router = r }

// Handle registers the protocol handler for a packet kind. Registering a
// kind twice panics: it indicates mis-wired protocols at construction
// time, never a runtime condition.
func (s *Stack) Handle(kind pkt.Kind, h Handler) {
	if s.handler(kind) != nil {
		panic(fmt.Sprintf("node: duplicate handler for %s", kind))
	}
	for int(kind) >= len(s.handlers) {
		s.handlers = append(s.handlers, nil)
	}
	s.handlers[kind] = h
}

// handler returns the handler registered for kind, or nil.
func (s *Stack) handler(kind pkt.Kind) Handler {
	if int(kind) >= len(s.handlers) {
		return nil
	}
	return s.handlers[kind]
}

// OnHeard subscribes to neighbour-activity events: fn runs for every frame
// received from a neighbour (AODV refreshes its hello tracking with this).
func (s *Stack) OnHeard(fn func(neighbor pkt.NodeID)) {
	s.heardSubs = append(s.heardSubs, fn)
}

// OnLinkFailure subscribes to MAC retry-exhaustion events. fn receives the
// unreachable neighbour and the packet that failed.
func (s *Stack) OnLinkFailure(fn func(neighbor pkt.NodeID, p *pkt.Packet)) {
	s.failSubs = append(s.failSubs, fn)
}

// SetTracer installs a packet-event observer (see package trace). A nil
// tracer disables tracing.
func (s *Stack) SetTracer(fn func(trace.Event)) { s.tracer = fn }

func (s *Stack) traceEvent(op trace.Op, p *pkt.Packet, peer pkt.NodeID) {
	if s.tracer == nil {
		return
	}
	s.tracer(trace.Event{
		At:   s.rt.Now(),
		Node: s.id,
		Op:   op,
		Kind: p.Kind,
		Src:  p.Src,
		Dst:  p.Dst,
		Peer: peer,
		Size: p.WireSize(),
	})
}

// SendBroadcast transmits p to all neighbours (one hop). Flooding is a
// protocol concern: handlers relay explicitly, through Rebroadcast.
func (s *Stack) SendBroadcast(p *pkt.Packet) {
	s.transmit(p, pkt.Broadcast, false)
}

// SendDirect transmits p to a known neighbour with MAC-level
// acknowledgement. Hop-by-hop protocols (RREP relaying, MACT activation,
// gossip walks) use this.
func (s *Stack) SendDirect(neighbor pkt.NodeID, p *pkt.Packet) {
	s.transmit(p, neighbor, false)
}

// SendUnicast routes p toward p.Dst. Packets for this node are delivered
// locally; packets without a route are handed to the router for
// discovery.
func (s *Stack) SendUnicast(p *pkt.Packet) {
	if p.Dst == s.id {
		s.deliver(p, s.id)
		return
	}
	if p.Dst == pkt.Broadcast {
		s.SendBroadcast(p)
		return
	}
	next, ok := s.router.NextHop(p.Dst)
	if !ok {
		s.router.QueueForRoute(p)
		return
	}
	s.transmit(p, next, false)
}

// Forward continues a transiting unicast packet toward its destination,
// decrementing TTL. It is also invoked by the router when a queued packet
// obtains its route.
func (s *Stack) Forward(p *pkt.Packet, forwarded bool) {
	if p.TTL == 0 {
		s.stats.TTLDrops++
		return
	}
	if forwarded {
		p = p.Clone()
		p.TTL--
	}
	if p.TTL == 0 {
		s.stats.TTLDrops++
		return
	}
	next, ok := s.router.NextHop(p.Dst)
	if !ok {
		s.router.QueueForRoute(p)
		return
	}
	s.transmit(p, next, forwarded)
}

func (s *Stack) transmit(p *pkt.Packet, linkDst pkt.NodeID, forwarded bool) {
	if !s.rt.Send(p, linkDst) {
		s.stats.MACRejects++
		return
	}
	if forwarded {
		s.stats.Forwarded++
		s.traceEvent(trace.OpForward, p, linkDst)
	} else {
		s.stats.Sent++
		s.traceEvent(trace.OpSend, p, linkDst)
	}
	size := uint64(p.WireSize())
	if p.Kind.IsControl() {
		s.stats.ControlBytes += size
	} else {
		s.stats.PayloadBytes += size
	}
}

func (s *Stack) onReceive(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
	for _, fn := range s.heardSubs {
		fn(from)
	}
	if broadcast || p.Dst == s.id || p.Dst == pkt.Broadcast {
		s.deliver(p, from)
		return
	}
	// Unicast in transit: forward transparently.
	s.Forward(p, true)
}

func (s *Stack) deliver(p *pkt.Packet, from pkt.NodeID) {
	h := s.handler(p.Kind)
	if h == nil {
		s.stats.NoHandler++
		return
	}
	s.stats.Delivered++
	s.traceEvent(trace.OpDeliver, p, from)
	h(p, from)
}

func (s *Stack) onSendDone(p *pkt.Packet, to pkt.NodeID, ok bool) {
	if ok || to == pkt.Broadcast {
		return
	}
	for _, fn := range s.failSubs {
		fn(to, p)
	}
}
