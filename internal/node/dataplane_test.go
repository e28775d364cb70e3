package node

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"anongossip/internal/mac"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
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
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(key(s))
		c.Add(key(s))
		s++
	}); n != 0 {
		t.Fatalf("Add on a full cache allocates %v times per run, want 0", n)
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
	e.sched.Run(time.Second)

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
		e.sched.Run(e.sched.Now() + time.Second)
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
	cfg := mac.DefaultConfig()
	cfg.QueueCap = 2
	e := lineMAC(t, 2, cfg)
	heard := map[uint32]int{}
	e.stacks[1].Handle(pkt.KindHello, func(p *pkt.Packet, _ pkt.NodeID) { heard[p.Body.(*pkt.Hello).Seq]++ })
	s := e.stacks[0]
	var built []*pkt.Packet
	e.sched.After(0, func() {
		for seq := uint32(0); seq < 10; seq++ {
			p := s.NewPacket(pkt.Broadcast, &pkt.Hello{Seq: seq})
			built = append(built, p)
			s.SendBroadcast(p)
		}
	})
	e.sched.Run(time.Second)
	// One frame at the head and two queued; the other seven are refused.
	if st := s.Stats(); st.Sent != 3 || st.MACRejects != 7 {
		t.Fatalf("%d sent and %d refused, want 3 and 7", st.Sent, st.MACRejects)
	}
	for seq := uint32(0); seq < 10; seq++ {
		want := 0
		if seq < 3 {
			want = 1
		}
		if heard[seq] != want {
			t.Fatalf("hello %d heard %d times, want %d (all: %v)", seq, heard[seq], want, heard)
		}
	}
	for i := 4; i < len(built); i++ {
		if built[i] != built[3] {
			t.Fatalf("packet %d was not built in the refused packet %d handed back", i, i-1)
		}
	}
}

// TestRebroadcastAllocatesNothing: a relay, from Rebroadcast to the
// copy leaving the MAC, allocates nothing in steady state: its timer
// record comes off the Stack's free list, and its copy is built in the
// packet the previous relay's link handed back.
func TestRebroadcastAllocatesNothing(t *testing.T) {
	e := line(t, 2)
	p := hello(1, pkt.Broadcast)
	rng := sim.NewRNG(5)
	relay := func() {
		if e.stacks[0].Rebroadcast(p, rng, time.Millisecond) == nil {
			t.Fatal("live packet not relayed")
		}
		e.sched.Run(e.sched.Now() + 5*time.Millisecond)
	}
	relay()
	if got := testing.AllocsPerRun(100, relay); got != 0 {
		t.Fatalf("a relay allocates %v times, want 0", got)
	}
	if st := e.stacks[1].Stats(); st.NoHandler != 102 {
		t.Fatalf("neighbour heard %d relays, want 102", st.NoHandler)
	}
}

// TestForwardAllocatesNothing: a unicast in transit — received, copied
// by Forward, acknowledged hop by hop — allocates nothing in steady
// state at the source, the forwarder or the destination: the source
// builds in the packet its last send gave back, the forwarder copies
// into the one its last forward gave back.
func TestForwardAllocatesNothing(t *testing.T) {
	e := line(t, 3)
	e.routers[0].table[3] = 2
	e.routers[1].table[3] = 3
	got := 0
	e.stacks[2].Handle(pkt.KindGossipRep, func(*pkt.Packet, pkt.NodeID) { got++ })
	s := e.stacks[0]
	rep := &pkt.GossipRep{Group: 1, Responder: 1, Msgs: []pkt.Data{{Group: 1, Origin: 1, Seq: 1, PayloadLen: 64}}}
	hop := func() {
		s.SendUnicast(s.NewPacket(3, rep))
		e.sched.Run(e.sched.Now() + 50*time.Millisecond)
	}
	hop()
	if n := testing.AllocsPerRun(100, hop); n != 0 {
		t.Fatalf("a forwarded unicast allocates %v times, want 0", n)
	}
	if got != 102 || e.stacks[1].Stats().Forwarded != 102 {
		t.Fatalf("%d delivered and %d forwarded, want 102 each", got, e.stacks[1].Stats().Forwarded)
	}
}
