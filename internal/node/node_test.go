package node

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
)

// staticRouter is a fixed next-hop table for tests.
type staticRouter struct {
	table  map[pkt.NodeID]pkt.NodeID
	queued []*pkt.Packet
	// heard, when set, is told of every NeighborHeard.
	heard func(n pkt.NodeID)
}

func (r *staticRouter) NextHop(dst pkt.NodeID) (pkt.NodeID, bool) {
	nh, ok := r.table[dst]
	return nh, ok
}

func (r *staticRouter) QueueForRoute(p *pkt.Packet) { r.queued = append(r.queued, p) }

func (r *staticRouter) NeighborHeard(n pkt.NodeID) {
	if r.heard != nil {
		r.heard(n)
	}
}

type env struct {
	*testworld.World
	stacks  []*Stack
	routers []*staticRouter
}

// line builds n stacks spaced 50 m apart with 60 m radio range, so each
// node only reaches its immediate neighbours.
func line(t *testing.T, n int) *env {
	t.Helper()
	rng := sim.NewRNG(99)
	e := &env{World: testworld.New(t, 60, testworld.Static(testworld.Line(n, 50)...), func(pkt.NodeID) *sim.RNG { return rng })}
	for _, rt := range e.MACs {
		st := NewOnRuntime(rt)
		r := &staticRouter{table: map[pkt.NodeID]pkt.NodeID{}}
		st.SetRouter(r)
		e.stacks = append(e.stacks, st)
		e.routers = append(e.routers, r)
	}
	return e
}

func hello(src, dst pkt.NodeID) *pkt.Packet { return pkt.NewPacket(src, dst, &pkt.Hello{Seq: 5}) }

func TestBroadcastDispatch(t *testing.T) {
	e := line(t, 3)
	var got []pkt.NodeID
	e.stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, from pkt.NodeID) {
		got = append(got, from)
	})
	e.Sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
	e.Sched.Run(time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("handler calls = %v, want [1]", got)
	}
	// Node 3 is out of range of node 1 and has no handler anyway.
	if e.stacks[2].Stats().Delivered != 0 {
		t.Fatal("out-of-range node delivered a packet")
	}
}

func TestTransparentForwarding(t *testing.T) {
	e := line(t, 3)
	// Routes: everyone reaches node 3 via the line.
	e.routers[0].table[3] = 2
	e.routers[1].table[3] = 3

	var deliveredTTL uint8
	e.stacks[2].Handle(pkt.KindHello, func(p *pkt.Packet, from pkt.NodeID) {
		deliveredTTL = p.TTL
		if from != 2 {
			t.Errorf("previous hop = %v, want 2", from)
		}
	})
	orig := hello(1, 3)
	e.Sched.After(0, func() { e.stacks[0].SendUnicast(orig) })
	e.Sched.Run(time.Second)

	if deliveredTTL == 0 {
		t.Fatal("packet not delivered")
	}
	if deliveredTTL != pkt.DefaultTTL-1 {
		t.Fatalf("delivered TTL = %d, want %d", deliveredTTL, pkt.DefaultTTL-1)
	}
	if orig.TTL != pkt.DefaultTTL {
		t.Fatal("forwarding mutated the sender's packet (missing clone)")
	}
	if e.stacks[1].Stats().Forwarded != 1 {
		t.Fatalf("middle node Forwarded = %d, want 1", e.stacks[1].Stats().Forwarded)
	}
}

func TestLocalDelivery(t *testing.T) {
	e := line(t, 1)
	got := 0
	e.stacks[0].Handle(pkt.KindHello, func(p *pkt.Packet, from pkt.NodeID) { got++ })
	e.Sched.After(0, func() { e.stacks[0].SendUnicast(hello(1, 1)) })
	e.Sched.Run(time.Second)
	if got != 1 {
		t.Fatalf("local delivery count = %d, want 1", got)
	}
}

func TestNoRouteQueues(t *testing.T) {
	e := line(t, 2)
	p := hello(1, 9)
	e.Sched.After(0, func() { e.stacks[0].SendUnicast(p) })
	e.Sched.Run(time.Second)
	if len(e.routers[0].queued) != 1 || e.routers[0].queued[0] != p {
		t.Fatalf("queued = %v, want the unrouted packet", e.routers[0].queued)
	}
}

func TestTTLExpiry(t *testing.T) {
	e := line(t, 3)
	e.routers[0].table[3] = 2
	e.routers[1].table[3] = 3
	e.stacks[2].Handle(pkt.KindHello, func(p *pkt.Packet, from pkt.NodeID) {
		t.Error("TTL-1 packet should not survive a second hop")
	})
	p := hello(1, 3)
	p.TTL = 1
	e.Sched.After(0, func() { e.stacks[0].SendUnicast(p) })
	e.Sched.Run(time.Second)
	if e.stacks[1].Stats().TTLDrops != 1 {
		t.Fatalf("middle node TTLDrops = %d, want 1", e.stacks[1].Stats().TTLDrops)
	}
}

// TestRouterHearsEveryFrame: a broadcast, a unicast for this node and a
// unicast in transit each reach the router's NeighborHeard before any
// handler runs, and a stack that never called SetRouter takes frames on
// NullRouter without panicking.
func TestRouterHearsEveryFrame(t *testing.T) {
	e := line(t, 3)
	e.routers[0].table[3] = 2
	e.routers[1].table[3] = 3
	var log []string
	for i := range e.stacks {
		id := i + 1
		e.routers[i].heard = func(n pkt.NodeID) { log = append(log, fmt.Sprintf("%d heard %d", id, n)) }
		e.stacks[i].Handle(pkt.KindHello, func(p *pkt.Packet, from pkt.NodeID) {
			log = append(log, fmt.Sprintf("%d delivers hello %d from %d", id, p.Body.(*pkt.Hello).Seq, from))
		})
	}
	send := func(at time.Duration, f func()) { e.Sched.At(at, f) }
	send(0, func() { e.stacks[0].SendBroadcast(pkt.NewPacket(1, pkt.Broadcast, &pkt.Hello{Seq: 1})) })
	send(time.Second, func() { e.stacks[0].SendDirect(2, pkt.NewPacket(1, 2, &pkt.Hello{Seq: 2})) })
	send(2*time.Second, func() { e.stacks[0].SendUnicast(pkt.NewPacket(1, 3, &pkt.Hello{Seq: 3})) })
	e.Sched.Run(3 * time.Second)
	want := []string{
		"2 heard 1", "2 delivers hello 1 from 1", // broadcast
		"2 heard 1", "2 delivers hello 2 from 1", // unicast for node 2
		"2 heard 1", // in transit: forwarded, not delivered
		"3 heard 2", "3 delivers hello 3 from 2",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("events:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}

	// Node 4 hears node 3 only and never gets a router: a broadcast goes
	// up (to no handler) and a unicast in transit finds no route.
	bare := NewOnRuntime(e.Add(t, 4, mobility.Static{P: geom.Point{X: 150}}, sim.NewRNG(4)))
	send(4*time.Second, func() { e.stacks[2].SendBroadcast(pkt.NewPacket(3, pkt.Broadcast, &pkt.Hello{Seq: 4})) })
	send(5*time.Second, func() { e.stacks[2].SendDirect(4, pkt.NewPacket(3, 9, &pkt.Hello{Seq: 5})) })
	e.Sched.Run(6 * time.Second)
	if st := bare.Stats(); st.NoHandler != 1 || st.Forwarded != 0 {
		t.Fatalf("router-less stack: %+v, want one frame without a handler and nothing forwarded", st)
	}
}

func TestBroadcastSendDoneNoFailure(t *testing.T) {
	e := line(t, 1) // no neighbours at all
	e.stacks[0].OnLinkFailure(func(n pkt.NodeID) {
		t.Error("broadcast must not produce link failures")
	})
	e.Sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
	e.Sched.Run(time.Second)
}

func TestDuplicateHandlerPanics(t *testing.T) {
	e := line(t, 1)
	e.stacks[0].Handle(pkt.KindHello, func(*pkt.Packet, pkt.NodeID) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	e.stacks[0].Handle(pkt.KindHello, func(*pkt.Packet, pkt.NodeID) {})
}

// TestHandleRejectsNonKind: a handler for a value that is no body kind
// could never run, so registering one panics.
func TestHandleRejectsNonKind(t *testing.T) {
	e := line(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Handle of kind value 20 did not panic")
		}
	}()
	e.stacks[0].Handle(pkt.Kind(20), func(*pkt.Packet, pkt.NodeID) {})
}

func TestNoHandlerCounted(t *testing.T) {
	// A HELLO at a stack with no HELLO handler, a bare one or one that
	// handles only DATA, is counted, not delivered.
	for _, handlesData := range []bool{false, true} {
		e := line(t, 2)
		if handlesData {
			e.stacks[1].Handle(pkt.KindData, func(*pkt.Packet, pkt.NodeID) {})
		}
		e.Sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
		e.Sched.Run(time.Second)
		if st := e.stacks[1].Stats(); st.NoHandler != 1 || st.Delivered != 0 {
			t.Fatalf("handlesData=%v: NoHandler = %d, Delivered = %d, want 1 and 0", handlesData, st.NoHandler, st.Delivered)
		}
	}
}

func TestByteAccountingSplitsControlAndPayload(t *testing.T) {
	e := line(t, 2)
	data := pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Group: 1, Origin: 1, Seq: 1, PayloadLen: 64})
	ctl := hello(1, pkt.Broadcast)
	e.Sched.After(0, func() {
		e.stacks[0].SendBroadcast(data)
		e.stacks[0].SendBroadcast(ctl)
	})
	e.Sched.Run(time.Second)
	st := e.stacks[0].Stats()
	if st.PayloadBytes != uint64(data.WireSize()) {
		t.Fatalf("PayloadBytes = %d, want %d", st.PayloadBytes, data.WireSize())
	}
	if st.ControlBytes != uint64(ctl.WireSize()) {
		t.Fatalf("ControlBytes = %d, want %d", st.ControlBytes, ctl.WireSize())
	}
}

func TestSendUnicastBroadcastDst(t *testing.T) {
	e := line(t, 2)
	got := 0
	e.stacks[1].Handle(pkt.KindHello, func(*pkt.Packet, pkt.NodeID) { got++ })
	e.Sched.After(0, func() { e.stacks[0].SendUnicast(hello(1, pkt.Broadcast)) })
	e.Sched.Run(time.Second)
	if got != 1 {
		t.Fatalf("broadcast-dst unicast deliveries = %d, want 1", got)
	}
}
