package node

import (
	"fmt"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mac"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// staticRouter is a fixed next-hop table for tests.
type staticRouter struct {
	table  map[pkt.NodeID]pkt.NodeID
	queued []*pkt.Packet
}

func (r *staticRouter) NextHop(dst pkt.NodeID) (pkt.NodeID, bool) {
	nh, ok := r.table[dst]
	return nh, ok
}

func (r *staticRouter) QueueForRoute(p *pkt.Packet) { r.queued = append(r.queued, p) }

type env struct {
	sched   *sim.Scheduler
	medium  *radio.Medium
	stacks  []*Stack
	routers []*staticRouter
}

// line builds n stacks spaced 50 m apart with 60 m radio range, so each
// node only reaches its immediate neighbours.
func line(t *testing.T, n int) *env {
	t.Helper()
	e := &env{sched: sim.NewScheduler()}
	e.medium = radio.NewMedium(e.sched, radio.Params{Range: 60})
	rng := sim.NewRNG(99)
	for i := 0; i < n; i++ {
		id := pkt.NodeID(i + 1)
		runtime, err := mac.New(e.sched, rng.Derive(fmt.Sprintf("mac/%d", id)), e.medium, id,
			mobility.Static{P: geom.Point{X: float64(i) * 50}}, mac.DefaultConfig(), mac.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		st := NewOnRuntime(runtime)
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
	e.sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
	e.sched.Run(time.Second)
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
	e.sched.After(0, func() { e.stacks[0].SendUnicast(orig) })
	e.sched.Run(time.Second)

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
	e.sched.After(0, func() { e.stacks[0].SendUnicast(hello(1, 1)) })
	e.sched.Run(time.Second)
	if got != 1 {
		t.Fatalf("local delivery count = %d, want 1", got)
	}
}

func TestNoRouteQueues(t *testing.T) {
	e := line(t, 2)
	p := hello(1, 9)
	e.sched.After(0, func() { e.stacks[0].SendUnicast(p) })
	e.sched.Run(time.Second)
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
	e.sched.After(0, func() { e.stacks[0].SendUnicast(p) })
	e.sched.Run(time.Second)
	if e.stacks[1].Stats().TTLDrops != 1 {
		t.Fatalf("middle node TTLDrops = %d, want 1", e.stacks[1].Stats().TTLDrops)
	}
}

func TestHeardSubscription(t *testing.T) {
	e := line(t, 2)
	var heard []pkt.NodeID
	e.stacks[1].OnHeard(func(n pkt.NodeID) { heard = append(heard, n) })
	e.sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
	e.sched.Run(time.Second)
	if len(heard) != 1 || heard[0] != 1 {
		t.Fatalf("heard = %v, want [1]", heard)
	}
}

func TestLinkFailureSubscription(t *testing.T) {
	e := line(t, 2)
	var failedTo []pkt.NodeID
	e.stacks[0].OnLinkFailure(func(n pkt.NodeID, p *pkt.Packet) {
		failedTo = append(failedTo, n)
	})
	// Node 9 does not exist: MAC retries then fails.
	e.sched.After(0, func() { e.stacks[0].SendDirect(9, hello(1, 9)) })
	e.sched.Run(10 * time.Second)
	if len(failedTo) != 1 || failedTo[0] != 9 {
		t.Fatalf("failure notifications = %v, want [9]", failedTo)
	}
}

func TestBroadcastSendDoneNoFailure(t *testing.T) {
	e := line(t, 1) // no neighbours at all
	e.stacks[0].OnLinkFailure(func(n pkt.NodeID, p *pkt.Packet) {
		t.Error("broadcast must not produce link failures")
	})
	e.sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
	e.sched.Run(time.Second)
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

func TestNoHandlerCounted(t *testing.T) {
	// The handler table reaches as far as the largest registered kind: a
	// HELLO is past its end on a bare stack and in an empty slot on one
	// that handles only DATA.
	for _, handlesData := range []bool{false, true} {
		e := line(t, 2)
		if handlesData {
			e.stacks[1].Handle(pkt.KindData, func(*pkt.Packet, pkt.NodeID) {})
		}
		e.sched.After(0, func() { e.stacks[0].SendBroadcast(hello(1, pkt.Broadcast)) })
		e.sched.Run(time.Second)
		if st := e.stacks[1].Stats(); st.NoHandler != 1 || st.Delivered != 0 {
			t.Fatalf("handlesData=%v: NoHandler = %d, Delivered = %d, want 1 and 0", handlesData, st.NoHandler, st.Delivered)
		}
	}
}

func TestByteAccountingSplitsControlAndPayload(t *testing.T) {
	e := line(t, 2)
	data := pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Group: 1, Origin: 1, Seq: 1, PayloadLen: 64})
	ctl := hello(1, pkt.Broadcast)
	e.sched.After(0, func() {
		e.stacks[0].SendBroadcast(data)
		e.stacks[0].SendBroadcast(ctl)
	})
	e.sched.Run(time.Second)
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
	e.sched.After(0, func() { e.stacks[0].SendUnicast(hello(1, pkt.Broadcast)) })
	e.sched.Run(time.Second)
	if got != 1 {
		t.Fatalf("broadcast-dst unicast deliveries = %d, want 1", got)
	}
}
