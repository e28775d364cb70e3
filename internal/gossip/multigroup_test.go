package gossip

import (
	"testing"
	"time"

	"anongossip/internal/pkt"
)

const secondGroup pkt.GroupID = 0xE0000002

// multiTree reports membership/hops for two groups with different
// shapes.
type multiTree struct {
	groups map[pkt.GroupID]*fakeTree
}

func (m *multiTree) NextHops(g pkt.GroupID) []NextHop {
	if t, ok := m.groups[g]; ok {
		return t.hops
	}
	return nil
}

func (m *multiTree) IsMember(g pkt.GroupID) bool {
	t, ok := m.groups[g]
	return ok && t.member
}

func TestEngineHandlesMultipleGroupsIndependently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)

	// Rewire nodes 1 and 4 to belong to two groups over the same line.
	for _, i := range []int{0, 3} {
		w.engines[i].tree = &multiTree{groups: map[pkt.GroupID]*fakeTree{
			testGroup:   {member: true, hops: w.trees[i].hops},
			secondGroup: {member: true, hops: w.trees[i].hops},
		}}
		w.engines[i].Attach(secondGroup)
	}

	w.Sched.After(0, func() {
		// Group 1: node 4 has data node 1 lacks.
		feed(w.engines[3], 9, 1, 10)
		feed(w.engines[0], 9, 1, 10, 3, 4)
		// Group 2: the same nodes, different stream, opposite direction.
		for s := uint32(1); s <= 6; s++ {
			d := pkt.Data{Group: secondGroup, Origin: 8, Seq: s, PayloadLen: 64}
			w.engines[0].OnTreeData(secondGroup, &d, 0)
			if s <= 3 {
				w.engines[3].OnTreeData(secondGroup, &d, 0)
			}
		}
	})
	w.Sched.Run(30 * time.Second)

	// Group 1 recovery at node 1.
	gs1 := w.engines[0].groups[testGroup]
	if gs1.lost.Len() != 0 {
		t.Fatalf("group 1 lost table not drained: %d", gs1.lost.Len())
	}
	// Group 2 recovery at node 4.
	gs2 := w.engines[3].groups[secondGroup]
	if got, _ := gs2.expected.Get(8); got != 7 {
		t.Fatalf("group 2 expected = %d, want 7", got)
	}
	// Streams must not leak across groups: node 1's group-2 state knows
	// nothing about origin 9.
	if _, crossed := w.engines[0].groups[secondGroup].expected.Get(9); crossed {
		t.Fatal("group 1 origin leaked into group 2 state")
	}
}

func TestWalkAcceptProbabilitySplitsAcceptAndForward(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	cfg.AcceptProb = 0.5
	// Line of 5, members at 0, 2, 4: the middle member sees walks it can
	// either accept or pass on.
	w := buildLine(t, 5, []int{0, 2, 4}, cfg)
	w.Sched.After(0, func() {
		feed(w.engines[0], 9, 1, 30, 5)
		feed(w.engines[2], 9, 1, 30)
		feed(w.engines[4], 9, 1, 30)
	})
	w.Sched.Run(120 * time.Second)

	mid := w.engines[2].Stats()
	if mid.WalksAccepted == 0 {
		t.Fatalf("middle member never accepted: %+v", mid)
	}
	if mid.WalksForwarded == 0 {
		t.Fatalf("middle member never propagated: %+v", mid)
	}
}

func TestWalkNeverAcceptedByInitiator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	cfg.AcceptProb = 1 // members accept at first opportunity
	w := buildLine(t, 3, []int{0}, cfg)
	w.Sched.After(0, func() { feed(w.engines[0], 9, 1, 5, 2) })
	w.Sched.Run(15 * time.Second)

	if got := w.engines[0].Stats().WalksAccepted; got != 0 {
		t.Fatalf("initiator accepted its own walk %d times", got)
	}
}
