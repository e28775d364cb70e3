package gossip

import (
	"slices"
	"testing"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/geom"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
)

const testGroup pkt.GroupID = 0xE0000001

// fakeTree is a static per-node tree view, demonstrating that the engine
// only needs the Tree interface (protocol independence, paper §5.5).
type fakeTree struct {
	member bool
	hops   []NextHop
}

func (f *fakeTree) NextHops(pkt.GroupID) []NextHop { return f.hops }
func (f *fakeTree) IsMember(pkt.GroupID) bool      { return f.member }

type gworld struct {
	*testworld.World
	stacks  []*node.Stack
	unis    []*aodv.Router
	trees   []*fakeTree
	engines []*Engine
}

// buildLine wires n nodes 50 m apart (range 60) with real stacks, MAC and
// AODV, a synthetic line tree, and a gossip engine everywhere. members
// lists node indices that are group members.
func buildLine(t *testing.T, n int, members []int, cfg Config) *gworld {
	t.Helper()
	var (
		fakes []*fakeTree
		trees []Tree
	)
	for i := 0; i < n; i++ {
		ft := &fakeTree{member: slices.Contains(members, i)}
		if i > 0 {
			ft.hops = append(ft.hops, NextHop{ID: pkt.NodeID(i), Nearest: pkt.NearestUnknown})
		}
		if i < n-1 {
			ft.hops = append(ft.hops, NextHop{ID: pkt.NodeID(i + 2), Nearest: pkt.NearestUnknown})
		}
		fakes = append(fakes, ft)
		trees = append(trees, ft)
	}
	w := buildWorld(t, testworld.Line(n, 50), trees, members, cfg)
	w.trees = fakes
	return w
}

// buildWorld wires node i (ID i+1) at positions[i] (range 60) with a
// real stack, MAC and AODV and a gossip engine walking trees[i]; the
// nodes whose indices members lists join the test group.
func buildWorld(t *testing.T, positions []geom.Point, trees []Tree, members []int, cfg Config) *gworld {
	t.Helper()
	rng := sim.NewRNG(2024)
	w := &gworld{World: testworld.New(t, 60, testworld.Static(positions...), testworld.Labelled(rng, "n/"))}
	for i, rt := range w.MACs {
		st := node.NewOnRuntime(rt)
		id := st.ID()
		uni := aodv.New(st, rng.Derive("a/"+id.String()), aodv.DefaultConfig())
		uni.Start()

		eng := New(st, trees[i], rng.Derive("g/"+id.String()), cfg)
		eng.SetRoutes(uni)
		if slices.Contains(members, i) {
			eng.Attach(testGroup)
		}
		w.stacks = append(w.stacks, st)
		w.unis = append(w.unis, uni)
		w.engines = append(w.engines, eng)
	}
	return w
}

// feed ingests a contiguous range of tree-delivered packets, skipping
// the listed sequence numbers.
func feed(e *Engine, origin pkt.NodeID, from, to uint32, skip ...uint32) {
	skipSet := map[uint32]bool{}
	for _, s := range skip {
		skipSet[s] = true
	}
	for s := from; s <= to; s++ {
		if skipSet[s] {
			continue
		}
		d := pkt.Data{Group: testGroup, Origin: origin, Seq: s, PayloadLen: 64}
		e.OnTreeData(testGroup, &d, 0)
	}
}

func TestWalkRecoversLostPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1 // anonymous walks only
	w := buildLine(t, 4, []int{0, 3}, cfg)

	// Member 4 (index 3) has the full stream; member 1 missed 5..8.
	w.Sched.After(0, func() {
		feed(w.engines[3], 9, 1, 20)
		feed(w.engines[0], 9, 1, 20, 5, 6, 7, 8)
	})
	w.Sched.Run(30 * time.Second)

	st := w.engines[0].Stats()
	if st.ReplyMsgsNew != 4 {
		t.Fatalf("recovered %d packets, want 4 (stats %+v)", st.ReplyMsgsNew, st)
	}
	// The lost table must be clean again.
	gs := w.engines[0].groups[testGroup]
	if len(gs.lost.keys) != 0 {
		t.Fatalf("lost table still has %d entries", len(gs.lost.keys))
	}
	if st.RoundsAnon == 0 {
		t.Fatal("no anonymous rounds ran")
	}
	// Routers forwarded walks.
	if w.engines[1].Stats().WalksForwarded == 0 {
		t.Fatal("interior router never forwarded a walk")
	}
}

func TestExpectedSequenceRecoversUnknownLosses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)

	// Member 1 received only 1..10 and does not know 11..20 exist.
	w.Sched.After(0, func() {
		feed(w.engines[3], 9, 1, 20)
		feed(w.engines[0], 9, 1, 10)
	})
	w.Sched.Run(40 * time.Second)

	gs := w.engines[0].groups[testGroup]
	if exp, _ := gs.expected.Get(9); exp != 21 {
		t.Fatalf("expected seq = %d, want 21 (stats %+v)", exp, w.engines[0].Stats())
	}
	if got := w.engines[0].Stats().ReplyMsgsNew; got != 10 {
		t.Fatalf("recovered %d, want 10", got)
	}
}

func TestEmptyRequestBootstrapsNewMember(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)

	// Member 1 has nothing at all; member 4 holds 11..20 in history.
	w.Sched.After(0, func() { feed(w.engines[3], 9, 11, 20) })
	w.Sched.Run(30 * time.Second)

	st := w.engines[0].Stats()
	if st.ReplyMsgsNew == 0 {
		t.Fatalf("bootstrap recovered nothing: %+v", st)
	}
	gs := w.engines[0].groups[testGroup]
	if len(gs.history.ring) == 0 {
		t.Fatal("history still empty after bootstrap")
	}
}

func TestCachedGossip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 0 // cached gossip whenever possible
	w := buildLine(t, 4, []int{0, 3}, cfg)

	w.Sched.After(0, func() {
		feed(w.engines[3], 9, 1, 20)
		feed(w.engines[0], 9, 1, 20, 5, 6)
		// Seed member 1's cache with member 4 (as join replies would).
		w.engines[0].OnMemberEvidence(testGroup, 4, 3)
	})
	w.Sched.Run(30 * time.Second)

	st := w.engines[0].Stats()
	if st.RoundsCached == 0 {
		t.Fatalf("no cached rounds despite seeded cache: %+v", st)
	}
	if st.ReplyMsgsNew != 2 {
		t.Fatalf("recovered %d, want 2", st.ReplyMsgsNew)
	}
}

func TestCachedGossipFallsBackToWalk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 0 // always prefer cached — but the cache stays empty
	// A single member: no replies ever arrive, so the cache never fills
	// and every round must fall back to an anonymous walk.
	w := buildLine(t, 3, []int{0}, cfg)
	w.Sched.After(0, func() { feed(w.engines[0], 9, 1, 10, 4) })
	w.Sched.Run(20 * time.Second)

	st := w.engines[0].Stats()
	if st.RoundsAnon == 0 {
		t.Fatalf("empty cache did not fall back to anonymous walk: %+v", st)
	}
	if st.RoundsCached != 0 {
		t.Fatalf("cached rounds with an empty cache: %+v", st)
	}
}

func TestReplyUpdatesMemberCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)
	w.Sched.After(0, func() {
		feed(w.engines[3], 9, 1, 10)
		feed(w.engines[0], 9, 1, 10, 4)
	})
	w.Sched.Run(20 * time.Second)

	if c := w.engines[0].groups[testGroup].cache; !cacheHolds(c, 4) {
		t.Fatalf("responder not cached: %v", c.entries)
	}
	// And symmetrically, the responder learned the initiator.
	if c := w.engines[3].groups[testGroup].cache; !cacheHolds(c, 1) {
		t.Fatalf("initiator not cached by responder: %v", c.entries)
	}
}

// TestRequestCapsExpected: a member that expects more origins than a
// request carries sends the ExpectedCap lowest, in origin order, and
// never its own.
func TestRequestCapsExpected(t *testing.T) {
	w := buildLine(t, 2, []int{0}, DefaultConfig())
	e := w.engines[0]
	gs := e.groups[testGroup]
	own := e.stack.ID()
	// Put in descending order, so the table's order is not the wire's.
	for o := pkt.NodeID(ExpectedCap + 3); o > own; o-- {
		gs.expected.Put(o.Uint64(), 10*uint32(o))
	}
	gs.expected.Put(own.Uint64(), 7)

	req := e.request(gs, 2, 0).Body.(*pkt.GossipReq)
	var want []pkt.Expect
	for o := own + 1; len(want) < ExpectedCap; o++ {
		want = append(want, pkt.Expect{Origin: o, NextSeq: 10 * uint32(o)})
	}
	if !slices.Equal(req.Expected, want) {
		t.Fatalf("request expects %v, want %v", req.Expected, want)
	}
}

// fixedRoutes knows a route of the same length to every destination and
// learns none.
type fixedRoutes uint8

func (h fixedRoutes) RouteHops(pkt.NodeID) (uint8, bool) { return uint8(h), true }
func (fixedRoutes) LearnRoute(_, _ pkt.NodeID, _ uint8)  {}

// TestMemberCacheTakesRouteHops: a known route's length, not the walk's,
// goes into the member cache, for the initiator of an accepted request
// and for the responder of a reply.
func TestMemberCacheTakesRouteHops(t *testing.T) {
	const routeHops, walkHops = 5, 2
	const initiator, responder pkt.NodeID = 7, 9
	w := buildLine(t, 2, []int{0}, DefaultConfig())
	e := w.engines[0]
	e.SetRoutes(fixedRoutes(routeHops))
	e.accept(&pkt.GossipReq{Group: testGroup, Initiator: initiator, Flags: pkt.GossipCached, HopsTraveled: walkHops})
	e.onReply(pkt.NewPacket(responder, e.stack.ID(), &pkt.GossipRep{Group: testGroup, Responder: responder, WalkHops: walkHops}), 2)

	for _, member := range []pkt.NodeID{initiator, responder} {
		c := e.groups[testGroup].cache
		i := slices.IndexFunc(c.entries, func(ce cacheEntry) bool { return ce.addr == member })
		if i < 0 {
			t.Fatalf("member %v not cached: %v", member, c.entries)
		}
		if got := c.entries[i].numHops; got != routeHops {
			t.Errorf("member %v cached at %d hops, want the route's %d", member, got, routeHops)
		}
	}
}

// TestWalkDropsAtTTL: on a ring of three nodes with one member, a walk
// always has a next hop and nobody to accept it, so only the TTL ends
// it.
func TestWalkDropsAtTTL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	ring := []geom.Point{{X: 0}, {X: 50}, {X: 25, Y: 40}}
	var trees []Tree
	for i := range ring {
		ft := &fakeTree{member: i == 0}
		for j := range ring {
			if j != i {
				ft.hops = append(ft.hops, NextHop{ID: pkt.NodeID(j + 1), Nearest: pkt.NearestUnknown})
			}
		}
		trees = append(trees, ft)
	}
	w := buildWorld(t, ring, trees, []int{0}, cfg)
	w.Sched.After(0, func() { feed(w.engines[0], 9, 1, 5, 3) })
	w.Sched.Run(10 * time.Second)

	dropped := uint64(0)
	for _, e := range w.engines {
		dropped += e.Stats().WalksDropped
	}
	if dropped == 0 {
		t.Fatal("no walk was dropped at TTL")
	}
	total := uint64(0)
	for _, e := range w.engines {
		total += e.Stats().WalksForwarded
	}
	rounds := w.engines[0].Stats().RoundsAnon
	if total > rounds*WalkTTL {
		t.Fatalf("forwards %d exceed rounds %d * TTL %d", total, rounds, WalkTTL)
	}
}

func TestGoodputAccounting(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 2, []int{0}, cfg)
	e := w.engines[0]
	w.Sched.After(0, func() { feed(e, 9, 1, 10) })
	w.Sched.Run(time.Second)

	// Craft a reply containing 2 new + 3 duplicate messages.
	rep := &pkt.GossipRep{Group: testGroup, Responder: 2, WalkHops: 1}
	for _, s := range []uint32{8, 9, 10, 11, 12} {
		rep.Msgs = append(rep.Msgs, pkt.Data{Group: testGroup, Origin: 9, Seq: s, PayloadLen: 64})
	}
	e.onReply(pkt.NewPacket(2, 1, rep), 2)

	st := e.Stats()
	if st.ReplyMsgsNew != 2 || st.ReplyMsgsDup != 3 {
		t.Fatalf("new/dup = %d/%d, want 2/3", st.ReplyMsgsNew, st.ReplyMsgsDup)
	}
	if g := st.Goodput(); g != 40 {
		t.Fatalf("Goodput = %v, want 40", g)
	}
}

func TestGoodputDefaultsTo100(t *testing.T) {
	var s Stats
	if s.Goodput() != 100 {
		t.Fatalf("zero-traffic goodput = %v, want 100", s.Goodput())
	}
}

// TestPullModeSuppressesRedundancy: the paper's pull exchange (§4.4)
// sends nothing a synchronised member already holds.
func TestPullModeSuppressesRedundancy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 4, []int{0, 3}, cfg)

	w.Sched.After(0, func() {
		feed(w.engines[0], 9, 1, 10)
		feed(w.engines[3], 9, 1, 10)
	})
	w.Sched.Run(30 * time.Second)

	// Synchronised members have empty lost buffers and matching
	// expectations: pull replies stay empty, so no duplicates flow.
	dups := w.engines[0].Stats().ReplyMsgsDup + w.engines[3].Stats().ReplyMsgsDup
	if dups != 0 {
		t.Fatalf("pull mode shipped %d redundant messages", dups)
	}
}

func TestIngestOutOfOrder(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 1, []int{0}, cfg)
	e := w.engines[0]
	gs := e.groups[testGroup]

	d3 := &pkt.Data{Group: testGroup, Origin: 9, Seq: 3}
	d1 := &pkt.Data{Group: testGroup, Origin: 9, Seq: 1}
	d2 := &pkt.Data{Group: testGroup, Origin: 9, Seq: 2}

	if !e.ingest(gs, d3, false) {
		t.Fatal("first packet rejected")
	}
	if len(gs.lost.keys) != 2 {
		t.Fatalf("lost entries = %d, want 2", len(gs.lost.keys))
	}
	if !e.ingest(gs, d1, false) || !e.ingest(gs, d2, false) {
		t.Fatal("recovery of known-lost packets rejected")
	}
	if len(gs.lost.keys) != 0 {
		t.Fatal("lost table not drained")
	}
	if e.ingest(gs, d2, false) {
		t.Fatal("duplicate accepted")
	}
	if exp, _ := gs.expected.Get(9); exp != 4 {
		t.Fatalf("expected = %d, want 4", exp)
	}
}

// TestSequenceGapIngest: a packet far past the expectation marks at
// most LostTableCap numbers lost, and leaves the lost table as marking
// the whole gap one number at a time would — including the eviction of
// older entries. A fresh origin at Seq 2³¹, the shape of a hostile
// frame, must not stall the node's loop for 2³¹ additions.
func TestSequenceGapIngest(t *testing.T) {
	cfg := DefaultConfig()
	lcap := uint32(LostTableCap)
	for _, gap := range []uint32{1, 150, lcap - 1, lcap, lcap + 1, 1000, 1 << 31} {
		e := buildLine(t, 1, []int{0}, cfg).engines[0]
		gs := e.groups[testGroup]
		feed(e, 8, 1, 60, 3, 30) // two older losses from another origin
		feed(e, 9, 1, 5)

		// What marking the gap 6 … 6+gap−1 one number at a time leaves.
		// Past 2¹⁶ only its last lcap numbers survive, older entries
		// included, so the reference skips straight to them.
		want := newLostTable(LostTableCap)
		from := uint32(6)
		if gap < 1<<16 {
			for _, k := range gs.lost.keys {
				want.Add(k)
			}
		} else {
			from = 6 + gap - lcap
		}
		for s := from; s < 6+gap; s++ {
			want.Add(pkt.SeqKey{Origin: 9, Seq: s})
		}

		start := time.Now()
		feed(e, 9, 6+gap, 6+gap)
		if el := time.Since(start); el > time.Second {
			t.Fatalf("gap %d: ingest took %v", gap, el)
		}
		if !slices.Equal(gs.lost.keys, want.keys) {
			t.Fatalf("gap %d: lost table starts %v, want %v (%d and %d keys)",
				gap, gs.lost.keys[0], want.keys[0], len(gs.lost.keys), len(want.keys))
		}
		for _, k := range want.keys {
			if !gs.lost.Contains(k) {
				t.Fatalf("gap %d: %v listed but not indexed", gap, k)
			}
		}
		if exp, _ := gs.expected.Get(9); exp != 7+gap {
			t.Fatalf("gap %d: expected %d, want %d", gap, exp, 7+gap)
		}
	}
}

func TestIsDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 1, []int{0}, cfg)
	e := w.engines[0]
	gs := e.groups[testGroup]
	feed(e, 9, 1, 10, 5)

	if !e.isDuplicate(gs, pkt.SeqKey{Origin: 9, Seq: 3}) {
		t.Fatal("received packet not flagged duplicate")
	}
	if e.isDuplicate(gs, pkt.SeqKey{Origin: 9, Seq: 5}) {
		t.Fatal("known-lost packet flagged duplicate")
	}
	if e.isDuplicate(gs, pkt.SeqKey{Origin: 9, Seq: 11}) {
		t.Fatal("future packet flagged duplicate")
	}
	if e.isDuplicate(gs, pkt.SeqKey{Origin: 8, Seq: 1}) {
		t.Fatal("unknown-origin packet flagged duplicate")
	}
}

// TestPickNextHopPrefersNearMembers: the walk weighs each link by its
// nearest-member distance d as 1/(1+d) (paper §4.2).
func TestPickNextHopPrefersNearMembers(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 1, []int{0}, cfg)
	e := w.engines[0]
	w.trees[0].hops = []NextHop{
		{ID: 10, Nearest: 1},
		{ID: 20, Nearest: 7},
	}
	counts := map[pkt.NodeID]int{}
	for i := 0; i < 20000; i++ {
		id, ok := e.pickNextHop(testGroup, 0)
		if !ok {
			t.Fatal("pickNextHop failed")
		}
		counts[id]++
	}
	// Weights 1/(1+d): 1/2 vs 1/8 -> ratio 4:1.
	ratio := float64(counts[10]) / float64(counts[20])
	if ratio < 3.2 || ratio > 5 {
		t.Fatalf("close/far ratio = %.1f (counts %v), want ~4", ratio, counts)
	}
}

func TestPickNextHopExcludes(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 1, []int{0}, cfg)
	e := w.engines[0]
	w.trees[0].hops = []NextHop{{ID: 10, Nearest: 1}}
	if _, ok := e.pickNextHop(testGroup, 10); ok {
		t.Fatal("pickNextHop returned the excluded hop")
	}
}

// TestPickNextHopAllocatesNothing: choosing a walk's next hop on a warm
// tree — what every round and every forwarded walk does — filters and
// weighs the tree's links in engine-owned scratch.
func TestPickNextHopAllocatesNothing(t *testing.T) {
	w := buildLine(t, 1, []int{0}, DefaultConfig())
	e := w.engines[0]
	w.trees[0].hops = []NextHop{{ID: 10, Nearest: 1}, {ID: 20, Nearest: 7}, {ID: 30, Nearest: pkt.NearestUnknown}}
	exclude := []pkt.NodeID{0, 10, 20, 30}
	const runs = 1000
	if n := testing.AllocsPerRun(1, func() {
		for i := range runs {
			if _, ok := e.pickNextHop(testGroup, exclude[i%len(exclude)]); !ok {
				t.Fatal("pickNextHop failed")
			}
		}
	}); n != 0 {
		t.Fatalf("%d pickNextHops allocate %v times, want 0", runs, n)
	}
}

// TestRoundAllocatesNothing: on a warm tree — routes known, tables and
// scratch grown, and each member's earlier gossip packets back from its
// link — gossip rounds allocate nothing: the request, the walk's forward
// at the router, the acceptance and the reply carrying the packet the
// initiator lacks are all built in packets their stacks have used before.
func TestRoundAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1 // anonymous walks: every request crosses the router
	w := buildLine(t, 3, []int{0, 2}, cfg)
	seq := uint32(150)
	// Member 3 (index 2) keeps getting packets member 1 never sees, so
	// every reply to member 1 carries one.
	w.Sched.After(0, func() {
		feed(w.engines[0], 9, 1, seq)
		feed(w.engines[2], 9, 1, seq)
	})
	d := &pkt.Data{Group: testGroup, Origin: 9, PayloadLen: 64}
	var fresh func()
	fresh = func() {
		seq++
		d.Seq = seq
		w.engines[2].OnTreeData(testGroup, d, 0)
		w.Sched.After(cfg.Interval, fresh)
	}
	w.Sched.After(cfg.Interval, fresh)
	w.Sched.Run(60 * time.Second) // routes known, tables and scratch grown
	// The measured 20 s are the first in which no pool reached a new
	// high-water mark (testworld.Settle).
	var before Stats
	testworld.Settle(t, 10, func() {
		before = w.engines[0].Stats()
		w.Sched.Run(w.Sched.Now() + 20*time.Second)
	})
	st := w.engines[0].Stats()
	if rounds, recovered := st.RoundsAnon-before.RoundsAnon, st.ReplyMsgsNew-before.ReplyMsgsNew; rounds < 15 || recovered < 15 {
		t.Fatalf("%d rounds recovered %d packets at member 1: not the steady state under test", rounds, recovered)
	}
	if w.engines[1].Stats().WalksForwarded == 0 {
		t.Fatal("the router forwarded no walk")
	}
}

func TestRoundSkippedWhenNotMember(t *testing.T) {
	cfg := DefaultConfig()
	w := buildLine(t, 2, []int{0}, cfg)
	// Attach the engine but revoke tree membership: rounds must skip.
	w.trees[0].member = false
	w.Sched.Run(5 * time.Second)
	st := w.engines[0].Stats()
	if st.RoundsSkipped == 0 || st.RoundsAnon != 0 {
		t.Fatalf("non-member rounds = %+v, want only skips", st)
	}
}

func TestOnLocalDataServesRepairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PAnon = 1
	w := buildLine(t, 3, []int{0, 2}, cfg)

	// Member 1 is the source: it records its own sends; member 3 missed
	// everything and recovers from the source's history via walks.
	w.Sched.After(0, func() {
		for s := uint32(1); s <= 5; s++ {
			w.engines[0].OnLocalData(testGroup, pkt.Data{Group: testGroup, Origin: 1, Seq: s, PayloadLen: 64})
		}
	})
	w.Sched.Run(30 * time.Second)

	if got := w.engines[2].Stats().ReplyMsgsNew; got != 5 {
		t.Fatalf("member 3 recovered %d own-source packets, want 5", got)
	}
}
