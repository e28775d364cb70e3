package gossip

import (
	"testing"
	"testing/quick"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

func key(seq uint32) pkt.SeqKey { return pkt.SeqKey{Origin: 1, Seq: seq} }

func TestLostTableBasics(t *testing.T) {
	lt := newLostTable(5)
	for s := uint32(1); s <= 3; s++ {
		lt.Add(key(s))
	}
	if lt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", lt.Len())
	}
	if !lt.Contains(key(2)) {
		t.Fatal("Contains(2) = false")
	}
	lt.Remove(key(2))
	if lt.Contains(key(2)) || lt.Len() != 2 {
		t.Fatal("Remove failed")
	}
	lt.Remove(key(99)) // absent: no-op
	lt.Add(key(1))     // duplicate: no-op
	if lt.Len() != 2 {
		t.Fatalf("Len after dup add = %d, want 2", lt.Len())
	}
}

func TestLostTableEvictsOldest(t *testing.T) {
	lt := newLostTable(3)
	for s := uint32(1); s <= 5; s++ {
		lt.Add(key(s))
	}
	if lt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", lt.Len())
	}
	for _, s := range []uint32{1, 2} {
		if lt.Contains(key(s)) {
			t.Fatalf("old entry %d not evicted", s)
		}
	}
	for _, s := range []uint32{3, 4, 5} {
		if !lt.Contains(key(s)) {
			t.Fatalf("recent entry %d evicted", s)
		}
	}
}

func TestLostTableRecentNewestFirst(t *testing.T) {
	lt := newLostTable(10)
	for s := uint32(1); s <= 6; s++ {
		lt.Add(key(s))
	}
	prefix := []pkt.SeqKey{key(99)}
	got := lt.AppendRecent(prefix, 3)
	want := []uint32{99, 6, 5, 4}
	if len(got) != 4 {
		t.Fatalf("AppendRecent(3) onto one key: len = %d", len(got))
	}
	for i, k := range got {
		if k.Seq != want[i] {
			t.Fatalf("AppendRecent order = %v", got)
		}
	}
	if n := len(lt.AppendRecent(nil, 100)); n != 6 {
		t.Fatalf("AppendRecent(100) len = %d, want 6", n)
	}
	if got := lt.AppendRecent(nil, 0); len(got) != 0 {
		t.Fatalf("AppendRecent(0) = %v, want nothing", got)
	}
}

// Property: the lost table never exceeds its capacity and never reports
// removed keys, for any interleaving of adds and removes.
func TestLostTableBoundedProperty(t *testing.T) {
	f := func(ops []uint16, removes []bool) bool {
		lt := newLostTable(20)
		for i, op := range ops {
			k := key(uint32(op % 50))
			if i < len(removes) && removes[i] {
				lt.Remove(k)
				if lt.Contains(k) {
					return false
				}
			} else {
				lt.Add(k)
				if !lt.Contains(k) {
					return false
				}
			}
			if lt.Len() > 20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func dataMsg(origin pkt.NodeID, seq uint32) pkt.Data {
	return pkt.Data{Group: 1, Origin: origin, Seq: seq, PayloadLen: 64}
}

func TestHistoryTableAddGet(t *testing.T) {
	h := newHistoryTable(4)
	for s := uint32(1); s <= 4; s++ {
		h.Add(dataMsg(1, s))
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	d, ok := h.Get(key(2))
	if !ok || d.Seq != 2 {
		t.Fatalf("Get(2) = (%v, %v)", d, ok)
	}
	// Re-adding an existing key must not grow the table.
	h.Add(dataMsg(1, 2))
	if h.Len() != 4 {
		t.Fatal("duplicate Add grew the table")
	}
}

func TestHistoryTableFIFOEviction(t *testing.T) {
	h := newHistoryTable(3)
	for s := uint32(1); s <= 5; s++ {
		h.Add(dataMsg(1, s))
	}
	if _, ok := h.Get(key(1)); ok {
		t.Fatal("oldest entry survived")
	}
	if _, ok := h.Get(key(2)); ok {
		t.Fatal("second-oldest entry survived")
	}
	for s := uint32(3); s <= 5; s++ {
		if _, ok := h.Get(key(s)); !ok {
			t.Fatalf("recent entry %d evicted", s)
		}
	}
}

func TestHistoryTableSince(t *testing.T) {
	h := newHistoryTable(10)
	for s := uint32(1); s <= 8; s++ {
		h.Add(dataMsg(1, s))
	}
	h.Add(dataMsg(2, 100)) // different origin must not appear

	got := h.AppendSince(nil, 1, 5, 10)
	if len(got) != 4 {
		t.Fatalf("Since(5) returned %d messages, want 4", len(got))
	}
	for i, d := range got {
		if d.Seq != uint32(5+i) {
			t.Fatalf("Since order = %v", got)
		}
	}
	if got := h.AppendSince(nil, 1, 5, 2); len(got) != 2 || got[0].Seq != 5 {
		t.Fatalf("Since with cap = %v", got)
	}
	if got := h.AppendSince(nil, 3, 0, 5); len(got) != 0 {
		t.Fatalf("Since(unknown origin) = %v", got)
	}
	// Appending leaves what dst held alone: the cap and the order apply
	// to the appended messages only.
	prefix := []pkt.Data{dataMsg(9, 50), dataMsg(9, 1)}
	got = h.AppendSince(prefix, 1, 6, 2)
	if len(got) != 4 || got[0].Seq != 50 || got[1].Seq != 1 || got[2].Seq != 6 || got[3].Seq != 7 {
		t.Fatalf("AppendSince onto a prefix = %v", got)
	}
}

func TestHistoryTableLatest(t *testing.T) {
	h := newHistoryTable(5)
	for s := uint32(1); s <= 7; s++ {
		h.Add(dataMsg(1, s))
	}
	got := h.AppendLatest([]pkt.Data{dataMsg(9, 50)}, 3)
	if len(got) != 4 {
		t.Fatalf("AppendLatest(3) onto one message: len = %d", len(got))
	}
	want := []uint32{50, 5, 6, 7}
	for i, d := range got {
		if d.Seq != want[i] {
			t.Fatalf("AppendLatest = %v, want seqs %v", got, want)
		}
	}
	if got := h.AppendLatest(nil, 100); len(got) != 5 {
		t.Fatalf("AppendLatest(100) len = %d, want 5", len(got))
	}
}

// Property: history table is always bounded and Get finds exactly the
// most recent cap insertions.
func TestHistoryTableBoundedProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		h := newHistoryTable(10)
		unique := map[uint32]bool{}
		var order []uint32
		for _, s := range seqs {
			seq := uint32(s % 100)
			h.Add(dataMsg(1, seq))
			if !unique[seq] {
				unique[seq] = true
				order = append(order, seq)
			}
		}
		return h.Len() <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemberCacheUpdateAndEviction(t *testing.T) {
	c := newMemberCache(3)
	now := sim.Time(0)
	c.Update(1, 2, now, false)
	c.Update(2, 5, now, false)
	c.Update(3, 3, now, false)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}

	// Rule 1: new member with hops 4 replaces the hops-5 entry.
	c.Update(4, 4, now+time.Second, false)
	members := map[pkt.NodeID]bool{}
	for _, m := range c.Members() {
		members[m] = true
	}
	if members[2] || !members[4] {
		t.Fatalf("eviction rule 1 violated: %v", c.Members())
	}

	// Rule 2: when no entry has greater numhops than the newcomer, the
	// most recently gossiped entry goes.
	c.MarkGossiped(3, now+10*time.Second)
	c.MarkGossiped(1, now+5*time.Second)
	c.Update(5, 9, now+11*time.Second, false) // hops 9 > all existing
	members = map[pkt.NodeID]bool{}
	for _, m := range c.Members() {
		members[m] = true
	}
	if members[3] {
		t.Fatalf("most recently gossiped entry (3) not evicted: %v", c.Members())
	}
	if !members[5] {
		t.Fatalf("new entry missing: %v", c.Members())
	}
}

func TestMemberCacheUpdateExisting(t *testing.T) {
	c := newMemberCache(3)
	c.Update(1, 5, 0, false)
	// Known distance overwrites.
	c.Update(1, 2, time.Second, false)
	if c.entries[0].numHops != 2 {
		t.Fatalf("numHops = %d, want 2", c.entries[0].numHops)
	}
	// Unknown distance must not clobber a known one.
	c.Update(1, pkt.NearestUnknown, 2*time.Second, false)
	if c.entries[0].numHops != 2 {
		t.Fatalf("unknown hops overwrote known: %d", c.entries[0].numHops)
	}
	if c.Len() != 1 {
		t.Fatalf("Update duplicated the entry: %d", c.Len())
	}
}

func TestMemberCachePick(t *testing.T) {
	c := newMemberCache(5)
	rng := sim.NewRNG(9)
	if _, ok := c.Pick(rng); ok {
		t.Fatal("Pick on empty cache succeeded")
	}
	c.Update(7, 1, 0, false)
	got, ok := c.Pick(rng)
	if !ok || got.addr != 7 {
		t.Fatalf("Pick = (%v, %v)", got, ok)
	}
}

// Property: cache never exceeds capacity and Update is idempotent on
// membership.
func TestMemberCacheBoundedProperty(t *testing.T) {
	f := func(addrs []uint8, hops []uint8) bool {
		c := newMemberCache(10)
		for i, a := range addrs {
			h := uint8(3)
			if i < len(hops) {
				h = hops[i] % 16
			}
			c.Update(pkt.NodeID(a), h, sim.Time(i)*time.Second, i%3 == 0)
			if c.Len() > 10 {
				return false
			}
		}
		// No duplicate addresses.
		seen := map[pkt.NodeID]bool{}
		for _, m := range c.Members() {
			if seen[m] {
				return false
			}
			seen[m] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCapacityTables(t *testing.T) {
	lt := newLostTable(0)
	lt.Add(key(1))
	if lt.Len() != 0 {
		t.Fatal("zero-cap lost table stored an entry")
	}
	h := newHistoryTable(0)
	h.Add(dataMsg(1, 1))
	if h.Len() != 0 {
		t.Fatal("zero-cap history stored an entry")
	}
	c := newMemberCache(0)
	c.Update(1, 1, 0, false)
	if c.Len() != 0 {
		t.Fatal("zero-cap cache stored an entry")
	}
}
