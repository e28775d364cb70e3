package node

import (
	"reflect"
	"slices"
	"testing"
	"time"

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
