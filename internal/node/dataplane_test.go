package node

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"anongossip/internal/mac"
	"anongossip/internal/pkt"
	rt "anongossip/internal/runtime"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
	"anongossip/internal/trace"
)

func key(seq uint32) pkt.SeqKey { return pkt.SeqKey{Origin: 1, Seq: seq} }

// TestSeqCache pins the duplicate filter the flooded data planes share:
// FIFO eviction once full, no refresh when a present key is added
// again, the bound, and the named panic of a cache with no slot.
func TestSeqCache(t *testing.T) {
	tests := []struct {
		name string
		size int
		adds []uint32
		// wantNew is Add's result per add; wantHeld the keys left, oldest
		// first.
		wantNew  []bool
		wantHeld []uint32
	}{
		{"under the bound", 4, []uint32{1, 2, 3}, []bool{true, true, true}, []uint32{1, 2, 3}},
		{"fifo eviction", 3, []uint32{1, 2, 3, 4, 5}, []bool{true, true, true, true, true}, []uint32{3, 4, 5}},
		{"duplicate rejected", 3, []uint32{1, 1, 2}, []bool{true, false, true}, []uint32{1, 2}},
		// Re-adding 1 does not make it the newest: it is still the
		// first to go.
		{"no refresh on re-add", 2, []uint32{1, 2, 1, 3, 1}, []bool{true, true, false, true, true}, []uint32{3, 1}},
		{"size one", 1, []uint32{1, 2, 2, 1}, []bool{true, true, false, true}, []uint32{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewSeqCache(tt.size)
			for i, s := range tt.adds {
				if got := c.Add(key(s)); got != tt.wantNew[i] {
					t.Fatalf("add %d (seq %d) = %v, want %v", i, s, got, tt.wantNew[i])
				}
				if c.set.Len() > tt.size || len(c.ring) > tt.size {
					t.Fatalf("cache holds %d/%d keys, bound %d", c.set.Len(), len(c.ring), tt.size)
				}
			}
			var held []uint32
			for i := range c.ring {
				held = append(held, c.ring[(c.next+i)%len(c.ring)].Seq)
			}
			if !slices.Equal(held, tt.wantHeld) || c.set.Len() != len(held) {
				t.Fatalf("held %v (set of %d), want %v", held, c.set.Len(), tt.wantHeld)
			}
		})
	}
	for _, size := range []int{0, -1} {
		func() {
			defer func() {
				if got := recover(); got != "node: SeqCache size must be positive" {
					t.Errorf("NewSeqCache(%d) panicked with %v, want the named panic", size, got)
				}
			}()
			NewSeqCache(size)
		}()
	}
	if idle := NewSeqCache(8); !reflect.ValueOf(idle.set).IsZero() || idle.ring != nil {
		t.Fatal("an unused cache allocated storage")
	}
}

// TestSeqCacheAddAllocatesNothing: once a cache is full, every Add —
// a duplicate, or a new key that evicts the oldest — reuses the ring
// and the table's slots.
func TestSeqCacheAddAllocatesNothing(t *testing.T) {
	c := NewSeqCache(64)
	for s := uint32(0); s < 64; s++ {
		c.Add(key(s))
	}
	s := uint32(64)
	const runs = 1000
	if n := testing.AllocsPerRun(1, func() {
		for range runs {
			c.Add(key(s))
			c.Add(key(s))
			s++
		}
	}); n != 0 {
		t.Fatalf("%d pairs of Adds on a full cache allocate %v times, want 0", runs, n)
	}
}

// TestRebroadcast pins the one flood relay: a spent TTL relays nothing
// and draws nothing; otherwise the copy leaves after the drawn delay
// with TTL−1 and the caller's body edit, and the original is untouched.
func TestRebroadcast(t *testing.T) {
	const jitter = 10 * time.Millisecond
	e := line(t, 2)
	var sentAt []sim.Time
	e.stacks[0].SetTracer(func(ev trace.Event) {
		if ev.Op == trace.OpSend {
			sentAt = append(sentAt, ev.At)
		}
	})
	var got []*pkt.Packet
	e.stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, _ pkt.NodeID) { got = append(got, p.Clone()) })

	rng, twin := sim.NewRNG(7), sim.NewRNG(7)
	for _, ttl := range []uint8{0, 1} {
		p := hello(1, pkt.Broadcast)
		p.TTL = ttl
		if cp := e.stacks[0].Rebroadcast(p, rng, jitter); cp != nil {
			t.Fatalf("TTL %d packet relayed", ttl)
		}
	}
	orig := hello(1, pkt.Broadcast)
	cp := e.stacks[0].Rebroadcast(orig, rng, jitter)
	if cp == nil {
		t.Fatal("live packet not relayed")
	}
	cp.Body.(*pkt.Hello).Seq = 6
	e.Sched.Run(time.Second)

	if want := twin.Duration(jitter); len(sentAt) != 1 || sentAt[0] != want {
		t.Fatalf("relay sent at %v, want once at the first draw %v", sentAt, want)
	}
	if len(got) != 1 || got[0].TTL != pkt.DefaultTTL-1 || got[0].Body.(*pkt.Hello).Seq != 6 {
		t.Fatalf("neighbour heard %v, want one copy with TTL %d and the edited body", got, pkt.DefaultTTL-1)
	}
	if orig.TTL != pkt.DefaultTTL || orig.Body.(*pkt.Hello).Seq != 5 {
		t.Fatal("Rebroadcast mutated the original packet")
	}
}

// TestRebroadcastRelaysEachPendingCopyOnce: relays fire in jitter order,
// not in the order they were armed, so every pending copy has a record
// of its own. Many relays pending at once with different delays each
// send their own copy exactly once — twice over, the second batch on
// the records and in the packets the first one gave back.
func TestRebroadcastRelaysEachPendingCopyOnce(t *testing.T) {
	e := line(t, 2)
	heard := map[uint32]int{}
	e.stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, _ pkt.NodeID) { heard[p.Body.(*pkt.Hello).Seq]++ })
	rng := sim.NewRNG(11)
	const batch = 20
	copies := map[*pkt.Packet]int{}
	for b := 0; b < 2; b++ {
		for i := 0; i < batch; i++ {
			p := pkt.NewPacket(1, pkt.Broadcast, &pkt.Hello{Seq: uint32(b*batch + i)})
			cp := e.stacks[0].Rebroadcast(p, rng, 50*time.Millisecond)
			if cp == nil {
				t.Fatal("live packet not relayed")
			}
			copies[cp]++
		}
		e.Sched.Run(e.Sched.Now() + time.Second)
	}
	if len(copies) == 2*batch {
		t.Fatalf("two batches of %d relays built %d distinct copies, want some of the first batch's rebuilt", batch, len(copies))
	}
	for seq := uint32(0); seq < 2*batch; seq++ {
		if heard[seq] != 1 {
			t.Fatalf("copy %d heard %d times, want once (all: %v)", seq, heard[seq], heard)
		}
	}
	if got := len(e.stacks[0].relays); got != batch {
		t.Fatalf("%d spare relay records after two batches of %d, want the first batch's reused", got, batch)
	}
}

// TestRefusedSendsComeBack: a packet the full MAC queue refuses is
// straight back with the stack, which builds the next packet in it, and
// every accepted packet still leaves intact, exactly once.
func TestRefusedSendsComeBack(t *testing.T) {
	e := line(t, 2)
	heard := map[uint32]int{}
	e.stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, _ pkt.NodeID) { heard[p.Body.(*pkt.Hello).Seq]++ })
	s := e.stacks[0]
	// One frame at the head and a full queue behind it; the rest are
	// refused.
	const refused = 7
	accepted := uint32(mac.DefaultConfig().QueueCap + 1)
	var built []*pkt.Packet
	e.Sched.After(0, func() {
		for seq := uint32(0); seq < accepted+refused; seq++ {
			p := s.NewPacket(pkt.Broadcast, &pkt.Hello{Seq: seq})
			built = append(built, p)
			s.SendBroadcast(p)
		}
	})
	e.Sched.Run(time.Second)
	if st := s.Stats(); st.Sent != uint64(accepted) || st.MACRejects != refused {
		t.Fatalf("%d sent and %d refused, want %d and %d", st.Sent, st.MACRejects, accepted, refused)
	}
	for seq := uint32(0); seq < accepted+refused; seq++ {
		want := 0
		if seq < accepted {
			want = 1
		}
		if heard[seq] != want {
			t.Fatalf("hello %d heard %d times, want %d (all: %v)", seq, heard[seq], want, heard)
		}
	}
	for i := int(accepted) + 1; i < len(built); i++ {
		if built[i] != built[accepted] {
			t.Fatalf("packet %d was not built in the refused packet %d handed back", i, i-1)
		}
	}
}

// TestFailedSendsComeBack: a routed unicast the MAC gives up on — its
// next hop is gone — comes back into the spares like a sent one, so the
// next packet of its kind is built in it, and the broken neighbour
// reaches the link-failure subscribers.
func TestFailedSendsComeBack(t *testing.T) {
	e := line(t, 2)
	s := e.stacks[0]
	e.routers[0].table[5] = 9 // node 9 does not exist: every retry fails
	var failedTo []pkt.NodeID
	s.OnLinkFailure(func(n pkt.NodeID) { failedTo = append(failedTo, n) })
	var p *pkt.Packet
	e.Sched.After(0, func() {
		p = s.NewPacket(5, &pkt.GossipRep{Group: 1, Responder: 1})
		s.SendUnicast(p)
	})
	e.Sched.Run(10 * time.Second)
	if !slices.Equal(failedTo, []pkt.NodeID{9}) {
		t.Fatalf("failure notifications = %v, want [9]", failedTo)
	}
	if q := s.NewPacket(5, &pkt.GossipRep{Group: 1, Responder: 1}); q != p {
		t.Fatal("the next reply was not built in the failed packet handed back")
	}
}

// TestRebroadcastAllocatesNothing: a relay, from Rebroadcast to the
// copy leaving the MAC, allocates nothing in steady state: its timer
// record comes off the Stack's free list, and its copy is built in the
// packet an earlier relay's link handed back — also in a burst of more
// relays pending at once than the two spares a stack keeps at rest,
// since each new relay record raised that bound by one. The measured
// 100 bursts are the first in which no pool grew (testworld.Settle).
func TestRebroadcastAllocatesNothing(t *testing.T) {
	const bursts = 100
	for _, depth := range []int{1, 5} {
		e := line(t, 2)
		p := hello(1, pkt.Broadcast)
		rng := sim.NewRNG(5)
		var heard uint64
		testworld.Settle(t, 10, func() {
			before := e.stacks[1].Stats().NoHandler
			for range bursts {
				for range depth {
					if e.stacks[0].Rebroadcast(p, rng, time.Millisecond) == nil {
						t.Fatal("live packet not relayed")
					}
				}
				e.Sched.Run(e.Sched.Now() + 20*time.Millisecond)
			}
			heard = e.stacks[1].Stats().NoHandler - before
		})
		if heard != uint64(bursts*depth) {
			t.Fatalf("neighbour heard %d of %d bursts of %d relays, want all", heard, bursts, depth)
		}
	}
}

// linkWatch is a runtime that tracks the packets a stack has let go of:
// a relay copy from Rebroadcast's return until the link hands it back,
// or refuses it.
type linkWatch struct {
	rt.Runtime
	out map[*pkt.Packet]bool
}

func (w *linkWatch) Send(p *pkt.Packet, to pkt.NodeID) bool {
	ok := w.Runtime.Send(p, to)
	if !ok {
		delete(w.out, p)
	}
	return ok
}

func (w *linkWatch) Bind(recv rt.ReceiveFunc, done rt.SendDoneFunc) {
	w.Runtime.Bind(recv, func(p *pkt.Packet, to pkt.NodeID, ok bool) {
		delete(w.out, p)
		done(p, to, ok)
	})
}

// TestRelayCopyNeverBuiltWhileHeld: a relay copy's storage is the stack's
// again only once the link hands it back. Bursts of relays deep enough to
// back up the MAC queue — copies pending on their jitter, queued, on the
// air — must each be built in storage nobody holds, and every copy is
// heard exactly once. From the second burst on, every copy is built in a
// packet the first burst's link handed back.
func TestRelayCopyNeverBuiltWhileHeld(t *testing.T) {
	rng := sim.NewRNG(99)
	w := testworld.New(t, 60, testworld.Static(testworld.Line(2, 50)...), func(pkt.NodeID) *sim.RNG { return rng })
	watch := &linkWatch{Runtime: w.MACs[0], out: map[*pkt.Packet]bool{}}
	stacks := []*Stack{NewOnRuntime(watch), NewOnRuntime(w.MACs[1])}
	heard := map[uint32]int{}
	stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, _ pkt.NodeID) { heard[p.Body.(*pkt.Hello).Seq]++ })
	const depth, bursts = 12, 4
	built := map[*pkt.Packet]bool{}
	for b := range bursts {
		for i := range depth {
			seq := uint32(b*depth + i)
			cp := stacks[0].Rebroadcast(pkt.NewPacket(1, pkt.Broadcast, &pkt.Hello{Seq: seq}), rng, 20*time.Millisecond)
			if watch.out[cp] {
				t.Fatalf("relay %d built in a packet a pending relay or the link still holds", seq)
			}
			watch.out[cp] = true
			built[cp] = true
		}
		w.Sched.Run(w.Sched.Now() + time.Second)
		if len(watch.out) != 0 {
			t.Fatalf("burst %d: %d copies never handed back", b, len(watch.out))
		}
	}
	for seq := uint32(0); seq < depth*bursts; seq++ {
		if heard[seq] != 1 {
			t.Fatalf("relay %d heard %d times, want once (all: %v)", seq, heard[seq], heard)
		}
	}
	if len(built) != depth {
		t.Fatalf("%d bursts of %d relays built %d distinct copies, want every burst after the first in the first's", bursts, depth, len(built))
	}
}

// TestForwardAllocatesNothing: a unicast in transit — received, copied
// by Forward, acknowledged hop by hop — allocates nothing in steady
// state at the source, the forwarder or the destination: the source
// builds in the packet its last send gave back, the forwarder copies
// into the one its last forward gave back. The measured 100 unicasts are
// the first in which no pool grew (testworld.Settle).
func TestForwardAllocatesNothing(t *testing.T) {
	e := line(t, 3)
	e.routers[0].table[3] = 2
	e.routers[1].table[3] = 3
	got := 0
	e.stacks[2].Handle(pkt.KindGossipRep, func(*pkt.Packet, pkt.NodeID) { got++ })
	s := e.stacks[0]
	rep := &pkt.GossipRep{Group: 1, Responder: 1, Msgs: []pkt.Data{{Group: 1, Origin: 1, Seq: 1, PayloadLen: 64}}}
	const hops = 100
	var delivered int
	var forwarded uint64
	testworld.Settle(t, 10, func() {
		gotBefore, fwdBefore := got, e.stacks[1].Stats().Forwarded
		for range hops {
			s.SendUnicast(s.NewPacket(3, rep))
			e.Sched.Run(e.Sched.Now() + 50*time.Millisecond)
		}
		delivered, forwarded = got-gotBefore, e.stacks[1].Stats().Forwarded-fwdBefore
	})
	if delivered != hops || forwarded != hops {
		t.Fatalf("%d delivered and %d forwarded, want %d each", delivered, forwarded, hops)
	}
}
