package gossip

import (
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/table"
)

// lostTable holds the sequence numbers of messages a member believes it
// has lost (paper §4.4), bounded in size with oldest-first eviction.
// Insertion order is preserved so the most recent entries can populate
// the gossip message's lost buffer.
type lostTable struct {
	cap   int
	keys  []pkt.SeqKey
	index table.Table[struct{}] // keyed by SeqKey.Uint64
}

func newLostTable(capacity int) *lostTable {
	return &lostTable{cap: capacity}
}

func (t *lostTable) Contains(k pkt.SeqKey) bool {
	_, ok := t.index.Get(k.Uint64())
	return ok
}

// Add records a missing message. When full, the oldest entry is evicted:
// old losses are the least likely to still be recoverable from bounded
// history tables.
func (t *lostTable) Add(k pkt.SeqKey) {
	if t.cap <= 0 || t.Contains(k) {
		return
	}
	if len(t.keys) >= t.cap {
		t.index.Delete(t.keys[0].Uint64())
		t.keys = t.keys[1:]
	}
	t.keys = append(t.keys, k)
	t.index.Put(k.Uint64(), struct{}{})
}

// Remove drops a recovered message.
func (t *lostTable) Remove(k pkt.SeqKey) {
	if !t.index.Delete(k.Uint64()) {
		return
	}
	for i := range t.keys {
		if t.keys[i] == k {
			t.keys = append(t.keys[:i], t.keys[i+1:]...)
			return
		}
	}
}

// AppendRecent appends to dst up to n of the most recently added
// entries, newest first (paper §4.4: "the most recent entries of the
// lost table are placed in a lost buffer").
func (t *lostTable) AppendRecent(dst []pkt.SeqKey, n int) []pkt.SeqKey {
	for i := len(t.keys) - 1; i >= 0 && i >= len(t.keys)-n; i-- {
		dst = append(dst, t.keys[i])
	}
	return dst
}

// historyTable is the bounded FIFO buffer of the most recent messages
// received (paper §4.4), used to answer gossip requests.
type historyTable struct {
	cap   int
	ring  []pkt.Data
	next  int
	index table.Table[int] // SeqKey.Uint64 -> ring position
}

func newHistoryTable(capacity int) *historyTable {
	return &historyTable{cap: capacity}
}

// Add stores a received message, evicting the oldest when full.
func (h *historyTable) Add(d pkt.Data) {
	k := d.Key().Uint64()
	if h.cap <= 0 {
		return
	}
	if pos, dup := h.index.Get(k); dup {
		h.ring[pos] = d
		return
	}
	if len(h.ring) < h.cap {
		h.index.Put(k, len(h.ring))
		h.ring = append(h.ring, d)
		return
	}
	h.index.Delete(h.ring[h.next].Key().Uint64())
	h.ring[h.next] = d
	h.index.Put(k, h.next)
	h.next = (h.next + 1) % h.cap
}

// Get looks a message up by identity.
func (h *historyTable) Get(k pkt.SeqKey) (pkt.Data, bool) {
	pos, ok := h.index.Get(k.Uint64())
	if !ok {
		return pkt.Data{}, false
	}
	return h.ring[pos], true
}

// AppendSince appends to dst up to max messages from origin with
// sequence >= from, in ascending sequence order. It serves the
// "expected sequence number" part of a gossip request: packets the
// initiator does not yet know it missed.
func (h *historyTable) AppendSince(dst []pkt.Data, origin pkt.NodeID, from uint32, max int) []pkt.Data {
	n := len(dst)
	for i := range h.ring {
		d := h.ring[i]
		if d.Origin == origin && d.Seq >= from {
			dst = append(dst, d)
		}
	}
	sortDataBySeq(dst[n:])
	if len(dst)-n > max {
		dst = dst[:n+max]
	}
	return dst
}

// AppendLatest appends to dst up to max of the most recently added
// messages (newest last). It serves empty gossip requests from members
// that have not yet received anything.
func (h *historyTable) AppendLatest(dst []pkt.Data, max int) []pkt.Data {
	n := len(h.ring)
	if max > n {
		max = n
	}
	// Ring order: h.next is the oldest slot once the ring is full.
	start := 0
	if n == h.cap {
		start = h.next
	}
	for i := n - max; i < n; i++ {
		dst = append(dst, h.ring[(start+i)%n])
	}
	return dst
}

func sortDataBySeq(ds []pkt.Data) {
	// Insertion sort: slices are at most MaxReplyMsgs + history scans.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Seq < ds[j-1].Seq; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// cacheEntry is one member cache row: (node_addr, numhops, last_gossip)
// per paper §4.3.
type cacheEntry struct {
	addr       pkt.NodeID
	numHops    uint8
	lastGossip sim.Time
}

// memberCache is the bounded cache of known group members used for
// cached gossip (paper §4.3). Eviction follows the paper: replace an
// entry with strictly greater hop distance; otherwise replace the entry
// with the most recent last_gossip time, "to avoid frequent gossips with
// the same members".
type memberCache struct {
	cap     int
	entries []cacheEntry
}

func newMemberCache(capacity int) *memberCache {
	return &memberCache{cap: capacity}
}

// Update inserts or refreshes knowledge about a member. numHops may be
// pkt.NearestUnknown when the distance is not known; known distances
// overwrite unknown ones. gossiped marks an actual gossip exchange,
// updating last_gossip.
func (c *memberCache) Update(addr pkt.NodeID, numHops uint8, now sim.Time, gossiped bool) {
	for i := range c.entries {
		if c.entries[i].addr != addr {
			continue
		}
		if numHops != pkt.NearestUnknown {
			c.entries[i].numHops = numHops
		}
		if gossiped {
			c.entries[i].lastGossip = now
		}
		return
	}
	e := cacheEntry{addr: addr, numHops: numHops, lastGossip: now}
	if len(c.entries) < c.cap {
		c.entries = append(c.entries, e)
		return
	}
	if c.cap == 0 {
		return
	}
	// Eviction rule 1: any member with strictly greater numhops.
	worst, worstHops := -1, numHops
	for i := range c.entries {
		if c.entries[i].numHops > worstHops {
			worst, worstHops = i, c.entries[i].numHops
		}
	}
	if worst >= 0 {
		c.entries[worst] = e
		return
	}
	// Eviction rule 2: the most recently gossiped entry.
	recent := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].lastGossip > c.entries[recent].lastGossip {
			recent = i
		}
	}
	c.entries[recent] = e
}

// MarkGossiped refreshes last_gossip for addr.
func (c *memberCache) MarkGossiped(addr pkt.NodeID, now sim.Time) {
	for i := range c.entries {
		if c.entries[i].addr == addr {
			c.entries[i].lastGossip = now
			return
		}
	}
}

// Pick returns a uniformly random cached member.
func (c *memberCache) Pick(rng *sim.RNG) (cacheEntry, bool) {
	if len(c.entries) == 0 {
		return cacheEntry{}, false
	}
	return c.entries[rng.Intn(len(c.entries))], true
}
