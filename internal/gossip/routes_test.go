package gossip

import (
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/pkt"
)

// scriptedTree is a router's tree view that offers script[k] on its
// k-th NextHops call and the last entry from then on, so a test fixes
// the path of a walk.
type scriptedTree struct {
	script [][]NextHop
	calls  int
}

func (s *scriptedTree) NextHops(pkt.GroupID) []NextHop {
	hops := s.script[min(s.calls, len(s.script)-1)]
	s.calls++
	return hops
}

func (s *scriptedTree) IsMember(pkt.GroupID) bool { return false }

func links(ids ...pkt.NodeID) []NextHop {
	var out []NextHop
	for _, id := range ids {
		out = append(out, NextHop{ID: id, Nearest: pkt.NearestUnknown})
	}
	return out
}

func (w *gworld) rreqsOriginated() (n uint64) {
	for _, u := range w.unis {
		n += u.Stats().RREQsOriginated
	}
	return n
}

func (w *gworld) ttlDrops() (n uint64) {
	for _, st := range w.stacks {
		n += st.Stats().TTLDrops
	}
	return n
}

// TestReplyRetracesWalk: on the line I–A–B–C with members I and C, a
// walk from I crosses A and B and C accepts it. Each hop learned a
// route back to I from the request, so C's reply goes back the same
// way and no node floods a route request, though hellos alone give C
// no route to I.
func TestReplyRetracesWalk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)
	w.Sched.After(0, func() {
		feed(w.engines[3], 9, 1, 20)
		feed(w.engines[0], 9, 1, 20, 5, 6, 7, 8)
	})
	w.Sched.Run(5 * time.Second)

	if got := w.engines[3].Stats().WalksAccepted; got == 0 {
		t.Fatal("C accepted no walk")
	}
	if st := w.engines[0].Stats(); st.RepliesReceived == 0 || st.ReplyMsgsNew != 4 {
		t.Fatalf("I received %d replies recovering %d packets, want ≥ 1 recovering 4", st.RepliesReceived, st.ReplyMsgsNew)
	}
	if n := w.rreqsOriginated(); n != 0 {
		t.Fatalf("%d route requests originated, want 0: the reply did not retrace the walk", n)
	}
	if hops, ok := w.unis[3].RouteHops(1); !ok || hops != 3 {
		t.Fatalf("C's route to I: %d hops (ok %v), want the walk's 3", hops, ok)
	}
}

// TestRevisitedNodeKeepsFirstReverseRoute: the walk I→X→A→B→C→A→D
// crosses A twice. A keeps the route to I it learned first (via X, two
// hops); taking the later one (via C) would send the reply round the
// loop A→C→B→A until its TTL ran out.
//
//	I(-100,0) — X(-50,0) — A(0,0) — D(50,0)
//	                 C(-25,40) — B(25,40)
func TestRevisitedNodeKeepsFirstReverseRoute(t *testing.T) {
	const (
		nI, nX, nA, nB, nC, nD = 1, 2, 3, 4, 5, 6
	)
	cfg := DefaultConfig()
	cfg.PAnon = 1
	positions := []geom.Point{{X: -100}, {X: -50}, {X: 0}, {X: 25, Y: 40}, {X: -25, Y: 40}, {X: 50}}
	trees := []Tree{
		&fakeTree{member: true, hops: links(nX)},
		&fakeTree{hops: links(nI, nA)},
		&scriptedTree{script: [][]NextHop{links(nB), links(nD)}}, // first visit on to B, later ones to D
		&fakeTree{hops: links(nA, nC)},
		&fakeTree{hops: links(nA, nB)},
		&fakeTree{member: true}, // no links: D accepts every walk
	}
	w := buildWorld(t, positions, trees, []int{nI - 1, nD - 1}, cfg)
	w.Sched.After(0, func() {
		feed(w.engines[nD-1], 9, 1, 20)
		feed(w.engines[nI-1], 9, 1, 20, 5, 6, 7, 8)
	})
	w.Sched.Run(1900 * time.Millisecond) // I's first round only

	if got := w.engines[nA-1].Stats().WalksForwarded; got != 2 {
		t.Fatalf("A forwarded %d walks, want 2 (one walk, two visits)", got)
	}
	if hops, ok := w.unis[nA-1].RouteHops(nI); !ok || hops != 2 {
		t.Fatalf("A's route to I: %d hops (ok %v), want the first visit's 2", hops, ok)
	}
	if next, _ := w.unis[nA-1].NextHop(nI); next != nX {
		t.Fatalf("A routes to I via %v, want X", next)
	}
	if st := w.engines[nI-1].Stats(); st.ReplyMsgsNew != 4 {
		t.Fatalf("I recovered %d packets, want 4", st.ReplyMsgsNew)
	}
	if n := w.ttlDrops(); n != 0 {
		t.Fatalf("%d packets dropped for TTL: the reply looped", n)
	}
	if n := w.rreqsOriginated(); n != 0 {
		t.Fatalf("%d route requests originated, want 0", n)
	}
}
