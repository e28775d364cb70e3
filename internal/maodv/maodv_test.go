package maodv

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/geom"
	"anongossip/internal/gossip"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
)

const testGroup pkt.GroupID = 0xE0000001

// awayOffset is where a moving node goes when sent away, relative to
// its home: about 990 m off, out of range of every test layout.
var awayOffset = geom.Point{X: 700, Y: 700}

type mworld struct {
	*testworld.World
	stacks    []*node.Stack
	unis      []*aodv.Router
	routers   []*Router
	delivered []map[pkt.SeqKey]int // per node: data key -> count
	homes     []geom.Point
	legs      []*testworld.Leg
}

// move starts node idx travelling away from its home (away) or back to
// it, from wherever it is now.
func (w *mworld) move(idx int, away bool) {
	to := w.homes[idx]
	if away {
		to = geom.Point{X: to.X + awayOffset.X, Y: to.Y + awayOffset.Y}
	}
	w.legs[idx].MoveTo(w.Sched.Now(), to)
}

// leaderAt is when a lone joiner leads its own tree: its join flood and
// joinRetries more have each gone unanswered, the waits doubling from
// joinReplyWait (0.4 + 0.8 + 1.6 + 3.2 s).
const leaderAt = joinReplyWait * (1<<(joinRetries+1) - 1)

// secondJoin is when the tests' second member joins, a second after the
// first leads the tree.
const secondJoin = leaderAt + time.Second

// buildM puts AODV and MAODV on every node; each stays at its
// position until the test moves it.
func buildM(t *testing.T, rangeM float64, positions []geom.Point) *mworld {
	t.Helper()
	w := &mworld{homes: positions}
	var models []mobility.Model
	for _, p := range positions {
		leg := &testworld.Leg{From: p, To: p}
		w.legs = append(w.legs, leg)
		models = append(models, leg)
	}
	rng := sim.NewRNG(321)
	w.World = testworld.New(t, rangeM, models, testworld.Labelled(rng, "n/"))
	for i, rt := range w.MACs {
		st := node.NewOnRuntime(rt)
		id := st.ID()
		uni := aodv.New(st, rng.Derive("a/"+id.String()), aodv.DefaultConfig())
		mr := New(st, uni, rng.Derive("m/"+id.String()), DefaultConfig())
		w.delivered = append(w.delivered, map[pkt.SeqKey]int{})
		mr.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ pkt.NodeID) {
			w.delivered[i][d.Key()]++
		})
		uni.Start()
		w.stacks = append(w.stacks, st)
		w.unis = append(w.unis, uni)
		w.routers = append(w.routers, mr)
	}
	return w
}

// leaderOf returns the test group's leader as r knows it, if valid.
func leaderOf(r *Router) (pkt.NodeID, bool) {
	g := r.group(testGroup)
	if g == nil || !g.leaderValid {
		return 0, false
	}
	return g.leader, true
}

func (w *mworld) joinAt(t sim.Time, idx int) {
	w.Sched.At(t, func() { w.routers[idx].Join(testGroup) })
}

func (w *mworld) sendAt(t sim.Time, idx int) {
	w.Sched.At(t, func() {
		if _, err := w.routers[idx].SendData(testGroup); err != nil {
			panic(err)
		}
	})
}

func TestLoneMemberBecomesLeader(t *testing.T) {
	w := buildM(t, 60, []geom.Point{{X: 0}})
	w.joinAt(0, 0)
	w.Sched.Run(leaderAt + groupHelloInterval + groupHelloJitter)

	if leader, ok := leaderOf(w.routers[0]); !ok || leader != 1 {
		t.Fatalf("leader = (%v, %v), want (1, true)", leader, ok)
	}
	if !w.routers[0].InTree(testGroup) || !w.routers[0].IsMember(testGroup) {
		t.Fatal("lone member not in tree or not member")
	}
	if w.routers[0].stats.LeaderElections != 1 {
		t.Fatalf("LeaderElections = %d, want 1", w.routers[0].stats.LeaderElections)
	}
	if w.routers[0].stats.GRPHsSent == 0 {
		t.Fatal("leader never sent a group hello")
	}
}

func TestTwoAdjacentMembersFormTree(t *testing.T) {
	w := buildM(t, 60, testworld.Line(2, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 1)
	w.Sched.Run(secondJoin + 7*time.Second)

	for i := 0; i < 2; i++ {
		if !w.routers[i].InTree(testGroup) {
			t.Fatalf("node %d not in tree", i+1)
		}
	}
	// Data flows both ways.
	w.sendAt(secondJoin+8*time.Second, 0)
	w.sendAt(secondJoin+9*time.Second, 1)
	w.Sched.Run(secondJoin + 12*time.Second)
	if len(w.delivered[1]) != 1 {
		t.Fatalf("member 2 delivered %d packets, want 1", len(w.delivered[1]))
	}
	if len(w.delivered[0]) != 1 {
		t.Fatalf("member 1 delivered %d packets, want 1", len(w.delivered[0]))
	}
}

func TestLineTreeFormationAndDataDelivery(t *testing.T) {
	w := buildM(t, 60, testworld.Line(4, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 3)
	w.Sched.Run(secondJoin + 7*time.Second)

	// All four nodes are tree participants (1, 4 members; 2, 3 routers).
	for i := 0; i < 4; i++ {
		if !w.routers[i].InTree(testGroup) {
			t.Fatalf("node %d not in tree", i+1)
		}
	}
	if w.routers[1].IsMember(testGroup) || w.routers[2].IsMember(testGroup) {
		t.Fatal("pure routers are reported as members")
	}
	// 20 packets from the leader side. Tree data is an unacknowledged
	// broadcast, so a frame the medium corrupts is lost (nodes 2 and 4
	// are hidden terminals at node 3); the tree loses no other.
	collisions := w.Medium.Stats().Collisions
	for i := 0; i < 20; i++ {
		w.sendAt(secondJoin+7*time.Second+sim.Time(i)*250*time.Millisecond, 0)
	}
	w.Sched.Run(secondJoin + 17*time.Second)
	collisions = w.Medium.Stats().Collisions - collisions
	if got := len(w.delivered[3]); uint64(20-got) > collisions {
		t.Fatalf("member 4 delivered %d packets, want 20 less at most the window's %d collisions", got, collisions)
	}
	// Routers forward but do not deliver.
	if len(w.delivered[1]) != 0 || len(w.delivered[2]) != 0 {
		t.Fatal("non-members delivered data")
	}
	if w.routers[1].stats.DataForwarded == 0 {
		t.Fatal("interior router never forwarded data")
	}
}

func TestNearestMemberConvergesOnLine(t *testing.T) {
	w := buildM(t, 60, testworld.Line(4, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 3)
	w.Sched.Run(secondJoin + 12*time.Second)

	// Expected nearest-member values (paper §4.2 semantics):
	// node1: via 2 -> member 4 at 3 hops
	// node2: via 1 -> 1 hop, via 3 -> 2 hops
	// node3: via 2 -> 2 hops, via 4 -> 1 hop
	// node4: via 3 -> member 1 at 3 hops
	want := []map[pkt.NodeID]uint8{
		{2: 3},
		{1: 1, 3: 2},
		{2: 2, 4: 1},
		{3: 3},
	}
	for i, m := range want {
		got := map[pkt.NodeID]uint8{}
		for _, nh := range w.routers[i].NextHops(testGroup) {
			got[nh.ID] = nh.Nearest
		}
		if len(got) != len(m) {
			t.Fatalf("node %d next hops = %v, want %v", i+1, got, m)
		}
		for id, v := range m {
			if got[id] != v {
				t.Errorf("node %d nearest via %v = %d, want %d", i+1, got[id], got[id], v)
			}
		}
	}
}

// TestTreeWalksAllocateNothing: on a converged tree the gossip walk's
// view of it (NextHops, sorted by ID) and a nearest-member recompute
// with nothing to advertise both run in router-owned scratch.
func TestTreeWalksAllocateNothing(t *testing.T) {
	w := buildM(t, 60, testworld.Line(4, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 3)
	w.Sched.Run(secondJoin + 12*time.Second)
	r := w.routers[1]
	g := r.group(testGroup)
	want := []gossip.NextHop{{ID: 1, Nearest: 1}, {ID: 3, Nearest: 2}}
	if got := r.NextHops(testGroup); !slices.Equal(got, want) {
		t.Fatalf("next hops %v, want %v", got, want)
	}
	sent := r.stats.NearestSent
	const runs = 100
	if n := testing.AllocsPerRun(1, func() {
		for range runs {
			r.NextHops(testGroup)
			r.nearestRecompute(g)
		}
	}); n != 0 {
		t.Fatalf("%d NextHops and quiet nearest recomputes allocate %v times, want 0", runs, n)
	}
	if r.stats.NearestSent != sent {
		t.Fatal("a converged tree re-advertised its nearest-member values")
	}
}

func TestUpstreamDownstreamDirections(t *testing.T) {
	w := buildM(t, 60, testworld.Line(3, 50))
	w.joinAt(0, 0) // leader
	w.joinAt(secondJoin, 2)
	w.Sched.Run(secondJoin + 7*time.Second)

	// Node 3 joined the leader's tree: its link to 2 is upstream.
	if e := w.routers[2].group(testGroup).next.get(2); e == nil || !e.enabled || !e.upstream {
		t.Fatal("joiner's selected branch not marked upstream")
	}
	// The leader's link to 2 is downstream.
	if e := w.routers[0].group(testGroup).next.get(2); e == nil || !e.enabled || e.upstream {
		t.Fatal("leader's branch marked upstream")
	}
}

func TestDuplicateDataSuppressed(t *testing.T) {
	w := buildM(t, 60, testworld.Line(2, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 1)
	w.sendAt(secondJoin+7*time.Second, 0)
	w.Sched.Run(secondJoin + 9*time.Second)

	for k, n := range w.delivered[1] {
		if n != 1 {
			t.Fatalf("packet %v delivered %d times", k, n)
		}
	}
}

func TestOffTreeDataIgnored(t *testing.T) {
	// Node 3 is within radio range of member 2 but never joins.
	w := buildM(t, 60, testworld.Line(3, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 1)
	w.sendAt(secondJoin+7*time.Second, 1) // member 2 transmits; node 3 overhears
	w.Sched.Run(secondJoin + 9*time.Second)

	if len(w.delivered[2]) != 0 {
		t.Fatal("non-member delivered data")
	}
	if w.routers[2].InTree(testGroup) {
		t.Fatal("bystander ended up in tree")
	}
}

// TestLinkBreakCascadesPrune: on the line 1–2–3–4 with members 1 (the
// leader) and 4, member 4 moves away. Router 3 loses its only
// downstream branch and prunes itself, and router 2, left a non-member
// leaf, follows (paper §3). The leader stays.
func TestLinkBreakCascadesPrune(t *testing.T) {
	w := buildM(t, 60, testworld.Line(4, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 3)
	w.Sched.Run(secondJoin + 7*time.Second)
	if !w.routers[1].InTree(testGroup) || !w.routers[2].InTree(testGroup) {
		t.Fatal("precondition: interior routers not in tree")
	}

	w.Sched.After(0, func() { w.move(3, true) })
	w.Sched.Run(secondJoin + 22*time.Second) // past hello-loss detection (2.4 s)

	if w.routers[2].InTree(testGroup) || w.routers[1].InTree(testGroup) {
		t.Fatal("prune did not cascade through non-member leaf routers")
	}
	if leader, ok := leaderOf(w.routers[0]); !ok || leader != 1 || !w.routers[0].InTree(testGroup) {
		t.Fatal("leader should remain in (degenerate) tree")
	}
}

// TestPrunedMemberRejoins: a member that is not the leader and whose only
// enabled branch, a downstream one, sends MACT(P) has no tree link left.
// It leaves the tree and starts a join.
func TestPrunedMemberRejoins(t *testing.T) {
	w := buildM(t, 60, testworld.Line(3, 50))
	r := w.routers[0]
	g := r.groupState(testGroup)
	g.member, g.inTree = true, true
	g.leader, g.leaderValid = 3, true
	g.next.put(2).enabled = true
	g.next.put(3) // known but never activated
	r.onMACT(pkt.NewPacket(2, 1, &pkt.MACT{Group: testGroup, Src: 2, Flags: pkt.MACTPrune}), 2)

	if g.inTree {
		t.Error("a member left without tree links stays in the tree")
	}
	if g.join == nil {
		t.Error("a member left without tree links starts no join")
	}
}

// delegationLine is the line 1–2–3 with router 2 in the tree between
// members 1 (upstream) and 3 (downstream). Node 5, out of range, leads
// the group: nobody on the line leads it.
func delegationLine(t *testing.T) (*mworld, *group) {
	t.Helper()
	w := buildM(t, 60, testworld.Line(3, 50))
	for i, r := range w.routers {
		g := r.groupState(testGroup)
		g.member, g.inTree = i != 1, true
		g.leader, g.leaderValid = 5, true
	}
	link := func(idx int, nb pkt.NodeID, upstream bool) {
		e := w.routers[idx].group(testGroup).next.put(nb)
		e.enabled, e.upstream = true, upstream
	}
	link(0, 2, false)
	link(1, 1, true)
	link(1, 3, false)
	link(2, 2, true)
	return w, w.routers[1].group(testGroup)
}

// leaders lists the line's nodes that lead the group.
func leaders(w *mworld) []pkt.NodeID {
	var out []pkt.NodeID
	for i, r := range w.routers {
		if r.isLeader(r.group(testGroup)) {
			out = append(out, pkt.NodeID(i+1))
		}
	}
	return out
}

// TestGroupLeaderSkipsExcludedLink: a router handed leadership by
// MACT(GL) over one link passes it down another, never back over the
// link it came from.
func TestGroupLeaderSkipsExcludedLink(t *testing.T) {
	w, g := delegationLine(t)
	w.routers[1].onMACT(pkt.NewPacket(1, 2, &pkt.MACT{Group: testGroup, Src: 1, Flags: pkt.MACTGroupLeader}), 1)
	w.Sched.Run(w.Sched.Now() + 100*time.Millisecond)

	if got, want := leaders(w), []pkt.NodeID{3}; !slices.Equal(got, want) {
		t.Fatalf("leaders after router 2 passed on leadership from node 1: %v, want %v", got, want)
	}
	if !g.inTree {
		t.Fatal("the delegating router left the tree")
	}
}

// TestFailedRepairRouterDelegates: a router whose upstream repair
// failed but still serves a downstream branch hands leadership down it
// and keeps serving it, rather than detaching.
func TestFailedRepairRouterDelegates(t *testing.T) {
	w, g := delegationLine(t)
	g.next.remove(1) // the upstream link broke and its repair failed
	w.routers[1].repairFailed(g)
	if !g.inTree || g.enabledCount() != 1 {
		t.Fatalf("after the failed repair: in tree %v with %d enabled links, want true and 1", g.inTree, g.enabledCount())
	}
	w.Sched.Run(w.Sched.Now() + 100*time.Millisecond)
	if got, want := leaders(w), []pkt.NodeID{3}; !slices.Equal(got, want) {
		t.Fatalf("leaders after the failed repair: %v, want the downstream member %v", got, want)
	}
}

func TestRepairAfterLinkBreak(t *testing.T) {
	// Diamond: members 1 (0,0) and 4 (100,0); routers 2 (50,40) and
	// 3 (50,-40); range 70 connects only the diamond edges.
	w := buildM(t, 70, []geom.Point{
		{X: 0, Y: 0}, {X: 50, Y: 40}, {X: 50, Y: -40}, {X: 100, Y: 0},
	})
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 3)
	// The diamond's two routers are hidden terminals to each other, so
	// join floods can collide; allow time for retries before sending.
	w.sendAt(secondJoin+12*time.Second, 0)
	w.Sched.Run(secondJoin + 15*time.Second)
	if len(w.delivered[3]) != 1 {
		t.Fatal("precondition: initial delivery failed")
	}

	// Remove whichever router carries the tree.
	w.Sched.After(0, func() {
		switch {
		case w.routers[1].InTree(testGroup):
			w.move(1, true)
		case w.routers[2].InTree(testGroup):
			w.move(2, true)
		default:
			t.Error("neither router is in the tree")
		}
	})
	// Wait out hello-loss detection (2.4 s) plus repair, then send again.
	w.Sched.After(15*time.Second, func() {
		if _, err := w.routers[0].SendData(testGroup); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.Sched.Run(secondJoin + 37*time.Second)

	if got := len(w.delivered[3]); got != 2 {
		t.Fatalf("member 4 delivered %d packets, want 2 (repair failed)", got)
	}
	if w.routers[3].stats.RepairsStarted == 0 && w.routers[0].stats.RepairsStarted == 0 {
		t.Fatal("no repair was started")
	}
}

func TestPartitionElectsNewLeaderAndMergesBack(t *testing.T) {
	// Line 1-2-3: members 1 and 3, router 2. Node 2 leaves; 3 becomes a
	// partition leader; when 2 returns, the leaders merge (lower ID
	// wins).
	w := buildM(t, 60, testworld.Line(3, 50))
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 2)
	w.Sched.Run(secondJoin + 7*time.Second)
	if !w.routers[2].InTree(testGroup) {
		t.Fatal("precondition: member 3 not attached")
	}

	w.Sched.After(0, func() { w.move(1, true) })
	w.Sched.Run(secondJoin + 37*time.Second) // hello loss + failed repair + election

	if leader, ok := leaderOf(w.routers[2]); !ok || leader != 3 {
		t.Fatalf("partitioned member's leader = (%v, %v), want itself (3)", leader, ok)
	}

	w.Sched.After(0, func() { w.move(1, false) })
	w.Sched.Run(secondJoin + 87*time.Second) // GRPH exchange + stepdown + rejoin

	if leader, ok := leaderOf(w.routers[2]); !ok || leader != 1 {
		t.Fatalf("after merge, member 3 leader = (%v, %v), want (1, true)", leader, ok)
	}
	if w.routers[2].stats.LeaderStepdowns == 0 {
		t.Fatal("losing leader never stepped down")
	}
	// Data flows across the merged tree again.
	w.sendAt(w.Sched.Now()+time.Second, 0)
	w.Sched.Run(w.Sched.Now() + 10*time.Second)
	if len(w.delivered[2]) == 0 {
		t.Fatal("no delivery after merge")
	}
}

func TestSendDataRequiresMembership(t *testing.T) {
	w := buildM(t, 60, testworld.Line(1, 50))
	if _, err := w.routers[0].SendData(testGroup); err == nil {
		t.Fatal("SendData from non-member succeeded")
	}
}

func TestMemberEvidenceFromJoinReplies(t *testing.T) {
	w := buildM(t, 60, testworld.Line(3, 50))
	var evidence []pkt.NodeID
	w.routers[2].OnMemberEvidence(func(_ pkt.GroupID, m pkt.NodeID, _ uint8) {
		evidence = append(evidence, m)
	})
	w.joinAt(0, 0)
	w.joinAt(secondJoin, 2)
	w.Sched.Run(secondJoin + 7*time.Second)

	found := false
	for _, m := range evidence {
		if m == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner collected no member evidence about the leader: %v", evidence)
	}
}

// TestDataCacheBounded checks each group's duplicate filter is bounded
// by dataCacheSize: after dataCacheSize+100 keys the last 8 are still
// duplicates and the first is new again.
func TestDataCacheBounded(t *testing.T) {
	const n = dataCacheSize + 100
	r := &Router{}
	g := r.groupState(testGroup)
	for i := 0; i < n; i++ {
		g.data.Add(pkt.SeqKey{Origin: 1, Seq: uint32(i)})
	}
	for i := n - 1; i >= n-8; i-- {
		if g.data.Add(pkt.SeqKey{Origin: 1, Seq: uint32(i)}) {
			t.Fatalf("recent key %d evicted", i)
		}
	}
	if !g.data.Add(pkt.SeqKey{Origin: 1, Seq: 0}) {
		t.Fatal("oldest key still cached")
	}
}

// TestRREPPathsExpire relays multicast RREPs that no MACT follows: paths
// recorded within rrepPathLifetime of each other coexist, but one
// recorded after the others expired leaves only itself.
func TestRREPPathsExpire(t *testing.T) {
	w := buildM(t, 60, []geom.Point{{X: 0}})
	r := w.routers[0]
	life := rrepPathLifetime
	relay := func(at sim.Time, id uint32) {
		w.Sched.At(at, func() {
			r.ObserveMulticastRREP(&pkt.RREP{Flags: pkt.RREPMulticast, Dst: uint32(testGroup), RREQID: id}, 2, false)
		})
	}
	relay(time.Second, 1)
	relay(time.Second+life/2, 2)
	w.Sched.Run(time.Second + life/2)
	if n := len(r.group(testGroup).rrepPaths); n != 2 {
		t.Fatalf("%d reply paths within one lifetime, want 2", n)
	}
	for k := uint32(3); k <= 12; k++ {
		relay(sim.Time(k)*(life+time.Millisecond), k)
	}
	w.Sched.Run(13 * (life + time.Millisecond))
	paths := r.group(testGroup).rrepPaths
	if _, ok := paths[12]; !ok || len(paths) > 1 {
		t.Fatalf("reply paths after RREPs a lifetime apart = %v, want only the last", paths)
	}
}

func TestSatAdd8(t *testing.T) {
	tests := []struct {
		a, b, want uint8
	}{
		{1, 2, 3},
		{0, 0, 0},
		{pkt.LeaderHopsUnset, 1, pkt.LeaderHopsUnset},
		{1, pkt.LeaderHopsUnset, pkt.LeaderHopsUnset},
		{200, 100, pkt.LeaderHopsUnset - 1},
		{254, 0, pkt.LeaderHopsUnset - 1},
	}
	for _, tt := range tests {
		if got := satAdd8(tt.a, tt.b); got != tt.want {
			t.Errorf("satAdd8(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestLinksMatchSortedMap: random put/get/remove/clear sequences on a
// group's next-hop list, and walks that remove entries as they go,
// match a map plus slices.Sort oracle: the same entries, in ID order,
// and a walk visits each exactly once.
func TestLinksMatchSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		var l links
		oracle := map[pkt.NodeID]nextHop{}
		for op := 0; op < 60; op++ {
			id := pkt.NodeID(1 + rng.Intn(12))
			switch rng.Intn(7) {
			case 0, 1:
				e := l.put(id)
				want, ok := oracle[id]
				if !ok {
					want = nextHop{nearest: pkt.NearestUnknown}
				}
				if *e != want {
					t.Fatalf("trial %d: put(%d) = %+v, want %+v", trial, id, *e, want)
				}
				e.enabled, e.upstream, e.nearest = rng.Intn(2) == 0, rng.Intn(2) == 0, uint8(rng.Intn(5))
				oracle[id] = *e
			case 2:
				e := l.get(id)
				want, ok := oracle[id]
				if (e != nil) != ok || ok && *e != want {
					t.Fatalf("trial %d: get(%d) = %v, want %+v (present %v)", trial, id, e, want, ok)
				}
			case 3:
				l.remove(id)
				delete(oracle, id)
			case 4, 5: // walk in order, removing disabled links on the way
				want := slices.Sorted(maps.Keys(oracle))
				var visited []pkt.NodeID
				for i := 0; i < len(l); {
					visited = append(visited, l[i].id)
					if !l[i].enabled {
						l.remove(l[i].id)
						continue
					}
					i++
				}
				if !slices.Equal(visited, want) {
					t.Fatalf("trial %d: walk visited %v, want %v", trial, visited, want)
				}
				maps.DeleteFunc(oracle, func(_ pkt.NodeID, e nextHop) bool { return !e.enabled })
			case 6:
				if rng.Intn(8) == 0 {
					l = l[:0]
					clear(oracle)
				}
			}
			ids := slices.Sorted(maps.Keys(oracle))
			if len(l) != len(ids) {
				t.Fatalf("trial %d: %d links, oracle holds %d", trial, len(l), len(ids))
			}
			for i, id := range ids {
				if l[i].id != id || l[i].nextHop != oracle[id] {
					t.Fatalf("trial %d: link %d is %d %+v, want %d %+v", trial, i, l[i].id, l[i].nextHop, id, oracle[id])
				}
			}
		}
	}
}
