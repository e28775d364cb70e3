package node

import (
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/table"
)

// The data plane every flooded message shares: flooding, MAODV and
// ODMRP data, AODV route requests, MAODV group hellos and ODMRP join
// queries all relay through Rebroadcast, and the three multicast data
// planes filter duplicates with a SeqCache.

// Rebroadcast relays a flooded packet one more hop. When p's TTL is
// spent (≤ 1) it returns nil and draws nothing. Otherwise it clones p,
// decrements the copy's TTL, broadcasts the copy after a uniform delay
// in [0, jitter) drawn from rng — the broadcast-storm mitigation — and
// returns it, so the caller can edit the body (a hop count) before it
// leaves. The draw advances rng: run every check that can skip the
// relay first.
func (s *Stack) Rebroadcast(p *pkt.Packet, rng *sim.RNG, jitter time.Duration) *pkt.Packet {
	if p.TTL <= 1 {
		return nil
	}
	cp := p.Clone()
	cp.TTL--
	s.rt.After(rng.Duration(jitter), func() { s.SendBroadcast(cp) })
	return cp
}

// SeqCache is a bounded FIFO set of packet identities: the duplicate
// filter of a flooded data plane. Once it holds size keys, each new key
// evicts the oldest. Storage grows on the first Add, so a cache that
// never sees data (a passive group shell) costs only its struct.
type SeqCache struct {
	size int
	set  table.Table[struct{}] // keyed by SeqKey.Uint64
	ring []pkt.SeqKey          // insertion order; ring[next] is the oldest once full
	next int
}

// NewSeqCache returns an empty cache bounded to size keys. A
// non-positive size panics: the ring needs a slot.
func NewSeqCache(size int) SeqCache {
	if size <= 0 {
		panic("node: SeqCache size must be positive")
	}
	return SeqCache{size: size}
}

// Add records k and reports whether it was new. A key already present
// keeps its place in the eviction order.
func (c *SeqCache) Add(k pkt.SeqKey) bool {
	if _, added := c.set.Insert(k.Uint64()); !added {
		return false
	}
	if len(c.ring) < c.size {
		c.ring = append(c.ring, k)
	} else {
		c.set.Delete(c.ring[c.next].Uint64())
		c.ring[c.next] = k
		c.next = (c.next + 1) % c.size
	}
	return true
}
