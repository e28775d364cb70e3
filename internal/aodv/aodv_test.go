package aodv

import (
	"slices"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
	"anongossip/internal/trace"
)

type world struct {
	*testworld.World
	stacks  []*node.Stack
	routers []*Router
	rxs     []int // GossipRep deliveries per node
}

// buildWorld wires stacks+AODV at the given positions (60 m range) and
// registers a payload handler (GossipRep stands in for any transparently
// routed unicast traffic). A non-nil models[i] moves node i instead.
func buildWorld(t *testing.T, positions []geom.Point, models ...mobility.Model) *world {
	t.Helper()
	ms := testworld.Static(positions...)
	for i, m := range models {
		if m != nil {
			ms[i] = m
		}
	}
	rng := sim.NewRNG(7)
	w := &world{World: testworld.New(t, 60, ms, testworld.Labelled(rng, "")), rxs: make([]int, len(positions))}
	for i, rt := range w.MACs {
		st := node.NewOnRuntime(rt)
		r := New(st, rng.Derive("aodv/"+st.ID().String()), DefaultConfig())
		st.Handle(pkt.KindGossipRep, func(p *pkt.Packet, from pkt.NodeID) { w.rxs[i]++ })
		r.Start()
		w.stacks = append(w.stacks, st)
		w.routers = append(w.routers, r)
	}
	return w
}

func payload(src, dst pkt.NodeID) *pkt.Packet {
	return pkt.NewPacket(src, dst, &pkt.GossipRep{Group: 1, Responder: src})
}

func TestRouteDiscoveryAndDelivery(t *testing.T) {
	w := buildWorld(t, testworld.Line(4, 50))
	w.Sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.Sched.Run(5 * time.Second)

	if w.rxs[3] != 1 {
		t.Fatalf("destination deliveries = %d, want 1", w.rxs[3])
	}
	if w.routers[0].Stats().RREQsOriginated == 0 {
		t.Fatal("no RREQ was originated")
	}
	// Forward route must now exist at the source.
	if _, ok := w.routers[0].NextHop(4); !ok {
		t.Fatal("source has no route to destination after discovery")
	}
	if hops, ok := w.routers[0].RouteHops(4); !ok || hops != 3 {
		t.Fatalf("route hops = %d (ok=%v), want 3", hops, ok)
	}
}

func TestMultiplePacketsQueuedDuringDiscovery(t *testing.T) {
	w := buildWorld(t, testworld.Line(3, 50))
	w.Sched.After(time.Second, func() {
		for i := 0; i < 5; i++ {
			w.stacks[0].SendUnicast(payload(1, 3))
		}
	})
	w.Sched.Run(5 * time.Second)
	if w.rxs[2] != 5 {
		t.Fatalf("deliveries = %d, want 5", w.rxs[2])
	}
}

// TestDiscoveryFailsForUnreachable: a discovery for a node nobody can
// reach runs the whole expanding ring search and then the floods. A
// listener beside the originator (a stack with no router, so it neither
// answers nor relays) hears every RREQ: rings of TTL 1, 3, 5 and 7, each
// waiting its ring traversal time, RREQTimeout·(TTL+2)/35, then the
// first flood and RREQRetries more at the full TTL, waiting RREQTimeout
// doubled per retry. The discovery fails when the last wait ends.
func TestDiscoveryFailsForUnreachable(t *testing.T) {
	w := buildWorld(t, []geom.Point{{X: 0}, {X: 500}})
	var ttls []uint8
	listener := node.NewOnRuntime(w.Add(t, 3, mobility.Static{P: geom.Point{X: 50}}, sim.NewRNG(3)))
	listener.Handle(pkt.KindRREQ, func(p *pkt.Packet, from pkt.NodeID) { ttls = append(ttls, p.TTL) })
	var sentAt []time.Duration
	w.stacks[0].SetTracer(func(e trace.Event) {
		if e.Op == trace.OpSend && e.Kind == pkt.KindRREQ {
			sentAt = append(sentAt, e.At)
		}
	})
	start := time.Second
	w.Sched.At(start, func() { w.stacks[0].SendUnicast(payload(1, 2)) })

	to := DefaultConfig().RREQTimeout // 500 ms
	waits := []time.Duration{to * 3 / 35, to * 5 / 35, to * 7 / 35, to * 9 / 35, to, 2 * to, 4 * to}
	wantTTLs := []uint8{1, 3, 5, 7, pkt.DefaultTTL, pkt.DefaultTTL, pkt.DefaultTTL}
	var wantAt []time.Duration
	end := start
	for _, wt := range waits {
		wantAt = append(wantAt, end)
		end += wt
	}
	w.Sched.Run(end - 1)
	if st := w.routers[0].Stats(); st.DiscoveryFails != 0 {
		t.Fatalf("discovery failed before its last wait ended at %v", end)
	}
	w.Sched.Run(end)

	st := w.routers[0].Stats()
	if st.DiscoveryFails != 1 || st.Discoveries != 1 {
		t.Fatalf("%d discoveries, %d failed; want one, failed at %v", st.Discoveries, st.DiscoveryFails, end)
	}
	if !slices.Equal(sentAt, wantAt) || st.RREQsOriginated != uint64(len(wantAt)) {
		t.Fatalf("RREQs sent at %v (%d originated), want at %v", sentAt, st.RREQsOriginated, wantAt)
	}
	if !slices.Equal(ttls, wantTTLs) {
		t.Fatalf("RREQ TTLs %v, want %v", ttls, wantTTLs)
	}
	if st.PacketsDropped == 0 {
		t.Fatal("queued packet was not counted as dropped")
	}
}

// TestRingStopsAtNeighbourReply: on the line 5-1-2-3-4, node 2 holds a
// sequenced route to 4 from a discovery of its own. Node 1's discovery
// of 4 asks its neighbours first: node 2 answers the TTL-1 ring, so the
// discovery sends that one RREQ, no wider ring, and node 5 on the far
// side hears it but relays nothing.
func TestRingStopsAtNeighbourReply(t *testing.T) {
	w := buildWorld(t, append(testworld.Line(4, 50), geom.Point{X: -50}))
	w.Sched.After(time.Second, func() { w.stacks[1].SendUnicast(payload(2, 4)) })
	w.Sched.Run(3 * time.Second)
	if w.rxs[3] != 1 {
		t.Fatal("precondition: node 2's packet was not delivered")
	}
	relayed := w.routers[4].Stats().RREQsForwarded
	before := w.routers[3].Stats().RREPsOriginated
	w.Sched.After(0, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.Sched.Run(8 * time.Second)

	if w.rxs[3] != 2 {
		t.Fatalf("deliveries = %d, want 2", w.rxs[3])
	}
	if st := w.routers[0].Stats(); st.Discoveries != 1 || st.RREQsOriginated != 1 {
		t.Fatalf("node 1 sent %d RREQs in %d discoveries, want the TTL-1 ring's one", st.RREQsOriginated, st.Discoveries)
	}
	if hops, ok := w.routers[0].RouteHops(4); !ok || hops != 3 {
		t.Fatalf("route hops = %d (ok=%v), want 3", hops, ok)
	}
	if w.routers[1].Stats().RREPsOriginated == 0 {
		t.Fatal("the neighbour holding a route did not answer")
	}
	if got := w.routers[3].Stats().RREPsOriginated; got != before {
		t.Fatalf("the destination answered too (%d → %d RREPs): a wider ring reached it", before, got)
	}
	if got := w.routers[4].Stats().RREQsForwarded; got != relayed {
		t.Fatalf("node 5 relayed node 1's request (%d → %d relays): it went out wider than one hop", relayed, got)
	}
}

func TestHelloNeighborDiscovery(t *testing.T) {
	w := buildWorld(t, testworld.Line(2, 50))
	w.Sched.Run(3 * time.Second)
	if !w.routers[0].HaveNeighbor(2) || !w.routers[1].HaveNeighbor(1) {
		t.Fatal("hello beacons did not establish neighbourhood")
	}
	// Hello also installs the 1-hop route.
	if nh, ok := w.routers[0].NextHop(2); !ok || nh != 2 {
		t.Fatalf("1-hop route = (%v, %v), want (2, true)", nh, ok)
	}
}

func TestHelloLossBreaksLink(t *testing.T) {
	pos := testworld.Line(2, 50)
	models := []mobility.Model{
		nil,
		&testworld.Leg{From: pos[1], To: geom.Point{X: 5000}, At: 5 * time.Second},
	}
	w := buildWorld(t, pos, models...)

	var broken []pkt.NodeID
	w.routers[0].OnLinkBreak(func(n pkt.NodeID) { broken = append(broken, n) })

	w.Sched.Run(4 * time.Second)
	if !w.routers[0].HaveNeighbor(2) {
		t.Fatal("precondition: neighbour not established")
	}
	w.Sched.Run(12 * time.Second)
	if w.routers[0].HaveNeighbor(2) {
		t.Fatal("vanished neighbour still tracked after allowed hello loss")
	}
	found := false
	for _, n := range broken {
		if n == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("link-break subscribers not notified: %v", broken)
	}
}

// TestMACFailureInvalidatesRoute: line 1-2-3; node 2 leaves after
// routes are set up. The next packet from 1 fails at the MAC before any
// hello deadline passes: the route is invalidated and a RERR goes out,
// and the failed packet is dropped, not re-routed into a new discovery.
func TestMACFailureInvalidatesRoute(t *testing.T) {
	pos := testworld.Line(3, 50)
	models := []mobility.Model{
		nil,
		&testworld.Leg{From: pos[1], To: geom.Point{X: 5000}, At: 6 * time.Second},
		nil,
	}
	w := buildWorld(t, pos, models...)
	w.Sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 3)) })
	w.Sched.Run(5 * time.Second)
	if w.rxs[2] != 1 {
		t.Fatal("precondition: initial delivery failed")
	}
	before := w.routers[0].Stats()
	// Send the second packet after node 2 leaves at t=6s. Node 2's last
	// hello was heard after 5 s, so by 7.5 s only the MAC failure can
	// have broken the link.
	w.Sched.After(2*time.Second, func() { w.stacks[0].SendUnicast(payload(1, 3)) })
	w.Sched.Run(7500 * time.Millisecond)
	st := w.routers[0].Stats()
	if st.LinkBreaks == before.LinkBreaks {
		t.Fatal("MAC failure did not register a link break")
	}
	if st.RERRsSent == before.RERRsSent {
		t.Fatal("link break sent no RERR")
	}
	if _, ok := w.routers[0].NextHop(3); ok {
		t.Fatal("stale route still valid after link break")
	}
	w.Sched.Run(40 * time.Second)
	if w.rxs[2] != 1 {
		t.Fatalf("deliveries = %d, want still 1 (no path after departure)", w.rxs[2])
	}
	if got := w.routers[0].Stats().RREQsOriginated; got != before.RREQsOriginated {
		t.Fatalf("RREQs originated %d → %d: the failed packet started a discovery", before.RREQsOriginated, got)
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	w := buildWorld(t, testworld.Line(4, 50))
	// Establish 1->4; then ask from node 2, which should get an answer
	// without a new full flood reaching node 4's neighbourhood... We
	// simply verify node 2 answers from its fresh route: node 1
	// rediscovers immediately after the first exchange.
	w.Sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.Sched.Run(4 * time.Second)

	before := w.routers[3].Stats().RREPsOriginated
	// Expire nothing: route at node 2 toward 4 is fresh. New request
	// from node 1 for 4 after deleting its own route: force by another
	// packet after invalidating locally.
	w.Sched.After(0, func() {
		// Simulate local route loss at node 1 only.
		w.routers[0].routes.Delete(pkt.NodeID(4).Uint64())
		w.stacks[0].SendUnicast(payload(1, 4))
	})
	w.Sched.Run(8 * time.Second) // Run horizons are absolute simulation times

	if w.rxs[3] != 2 {
		t.Fatalf("deliveries = %d, want 2", w.rxs[3])
	}
	if w.routers[1].Stats().RREPsOriginated == 0 {
		t.Fatal("intermediate node with fresh route did not reply")
	}
	if got := w.routers[3].Stats().RREPsOriginated; got != before {
		t.Fatalf("destination replied again (%d -> %d); intermediate reply expected", before, got)
	}
}

func TestRERRPropagation(t *testing.T) {
	// Chain 1-2-3-4. After route setup, node 4 vanishes. Node 3 detects
	// (hello loss), broadcasts RERR; nodes 2 and 1 must invalidate.
	pos := testworld.Line(4, 50)
	models := []mobility.Model{
		nil, nil, nil,
		&testworld.Leg{From: pos[3], To: geom.Point{X: 9000}, At: 6 * time.Second},
	}
	w := buildWorld(t, pos, models...)
	w.Sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.Sched.Run(5 * time.Second)
	if w.rxs[3] != 1 {
		t.Fatal("precondition: delivery failed")
	}
	if _, ok := w.routers[1].NextHop(4); !ok {
		t.Fatal("precondition: node 2 lacks route to 4")
	}
	w.Sched.Run(15 * time.Second) // hello loss at node 3 + RERR propagation

	if _, ok := w.routers[2].NextHop(4); ok {
		t.Fatal("node 3 still has valid route to vanished node 4")
	}
	if _, ok := w.routers[1].NextHop(4); ok {
		t.Fatal("node 2 did not invalidate on RERR")
	}
	if _, ok := w.routers[0].NextHop(4); ok {
		t.Fatal("node 1 did not invalidate on RERR")
	}
}

func TestNewerSeq(t *testing.T) {
	tests := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 0xFFFFFFFF, true}, // wraparound
		{0xFFFFFFFF, 0, false},
	}
	for _, tt := range tests {
		if got := newerSeq(tt.a, tt.b); got != tt.want {
			t.Errorf("newerSeq(%d, %d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSeenCacheSweep(t *testing.T) {
	w := buildWorld(t, testworld.Line(2, 50))
	w.Sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 9)) })
	w.Sched.Run(30 * time.Second)
	// After SeenLifetime + sweeps, the cache must be clean.
	if r := w.routers[1]; r.seen.Len() != 0 || len(r.seenLog) != 0 {
		t.Fatalf("seen cache has %d stale entries (%d writes logged)", r.seen.Len(), len(r.seenLog))
	}
}

// TestSeenSweepKeepsRewrittenEntry: an RREQ entry rewritten after it
// expired, before a sweep dropped it, is logged once per write. The
// sweep that drops the first write must keep the live entry, and a
// sweep after the rewrite's own expiry drops it.
func TestSeenSweepKeepsRewrittenEntry(t *testing.T) {
	w := buildWorld(t, testworld.Line(1, 50))
	r := w.routers[0]
	// Sweeps run every HelloInterval (600 ms) from 0: the first write
	// expires at 6.1 s and is dropped by the 6.6 s sweep (its mark was
	// made at 1.2 s), which the rewrite at 6.2 s precedes.
	w.Sched.At(1100*time.Millisecond, func() { r.NoteOwnRREQ(7) })
	w.Sched.At(6200*time.Millisecond, func() { r.NoteOwnRREQ(7) })
	w.Sched.Run(7 * time.Second)
	if exp, ok := r.seen.Get(seenKey(r.stack.ID(), 7)); !ok || exp != 11200*time.Millisecond || len(r.seenLog) != 1 {
		t.Fatalf("after the 6.6 s sweep: entry %v (present %v), %d writes logged; want the rewrite, expiring at 11.2 s, logged alone", exp, ok, len(r.seenLog))
	}
	w.Sched.Run(13 * time.Second)
	if r.seen.Len() != 0 || len(r.seenLog) != 0 {
		t.Fatalf("after its expiry: %d entries, %d writes logged", r.seen.Len(), len(r.seenLog))
	}
}

// TestOnHeardAllocatesNothing: refreshing a known neighbour — what
// every frame the node hears does, through the stack's router hook —
// allocates nothing.
func TestOnHeardAllocatesNothing(t *testing.T) {
	r := buildWorld(t, testworld.Line(1, 50)).routers[0]
	var hook node.UnicastRouter = r
	for n := pkt.NodeID(2); n < 40; n++ {
		hook.NeighborHeard(n)
	}
	n := pkt.NodeID(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		hook.NeighborHeard(n)
		n = 2 + (n-1)%38
	}); allocs != 0 {
		t.Fatalf("NeighborHeard of a known neighbour allocates %v times, want 0", allocs)
	}
	if r.neighbors.Len() != 38 || !r.HaveNeighbor(39) || r.HaveNeighbor(40) {
		t.Fatalf("%d neighbours tracked, want 2…39", r.neighbors.Len())
	}
}

// TestTicksAllocateNothing: in steady state — neighbours known, routes
// installed — a minute of hello and sweep ticks on a three-node line
// allocates nothing: not for re-arming either tick, nor for the sweep,
// nor for the hellos' trip through the MAC and the radio, nor for the
// hello packets, each built in the one the previous hello's link handed
// back. The measured minute is the first in which no pool reached a new
// high-water mark (testworld.Settle).
func TestTicksAllocateNothing(t *testing.T) {
	w := buildWorld(t, testworld.Line(3, 50))
	hellos := func() (n uint64) {
		for _, r := range w.routers {
			n += r.Stats().HellosSent
		}
		return n
	}
	var sent uint64
	testworld.Settle(t, 10, func() {
		before := hellos()
		w.Sched.Run(w.Sched.Now() + time.Minute)
		sent = hellos() - before
	})
	if sent < 250 {
		t.Fatalf("the minute without allocations sent %d hellos: not the steady state under test", sent)
	}
	for _, r := range w.routers {
		if r.Stats().LinkBreaks != 0 {
			t.Fatal("a static line broke a link: not the steady state under test")
		}
	}
}

func TestQueueBounded(t *testing.T) {
	w := buildWorld(t, []geom.Point{{X: 0}, {X: 500}})
	w.Sched.After(time.Second, func() {
		for i := 0; i < DefaultConfig().MaxQueuedPerDest+5; i++ {
			w.stacks[0].SendUnicast(payload(1, 2))
		}
	})
	w.Sched.Run(2 * time.Second)
	d := w.routers[0].pending[2]
	if d == nil {
		t.Fatal("no pending discovery")
	}
	if len(d.queued) != DefaultConfig().MaxQueuedPerDest {
		t.Fatalf("queued = %d, want cap %d", len(d.queued), DefaultConfig().MaxQueuedPerDest)
	}
}

// TestLearnRouteFreshness: a learned route carries no sequence number,
// so it fills a missing or an expired entry but never replaces a fresh
// route, sequenced or hello-learned, and a later RREP replaces it.
func TestLearnRouteFreshness(t *testing.T) {
	w := buildWorld(t, testworld.Line(2, 50))
	w.Sched.Run(time.Second) // hellos: 1 and 2 hold 1-hop routes to each other
	r := w.routers[0]
	route := func(dst pkt.NodeID) (pkt.NodeID, uint8) {
		hops, ok := r.RouteHops(dst)
		if !ok {
			return 0, 0
		}
		next, _ := r.NextHop(dst)
		return next, hops
	}

	r.LearnRoute(9, 2, 3) // missing entry
	if next, hops := route(9); next != 2 || hops != 3 {
		t.Fatalf("learned route to 9: via %v, %d hops; want via 2, 3 hops", next, hops)
	}
	r.LearnRoute(9, 7, 1) // fresh, unsequenced: kept
	if next, hops := route(9); next != 2 || hops != 3 {
		t.Fatalf("a second learned route replaced a fresh one: via %v, %d hops", next, hops)
	}

	w.Sched.Run(w.Sched.Now() + DefaultConfig().ActiveRouteTimeout + time.Second)
	if _, ok := r.RouteHops(9); ok {
		t.Fatal("unused route to 9 did not expire")
	}
	r.LearnRoute(9, 2, 4) // expired entry
	if next, hops := route(9); next != 2 || hops != 4 {
		t.Fatalf("learned route into an expired entry: via %v, %d hops; want via 2, 4 hops", next, hops)
	}

	rrep := pkt.NewPacket(2, 1, &pkt.RREP{Dst: 9, DstSeq: 1, Orig: 1, HopCount: 1})
	r.onRREP(rrep, 2)
	if next, hops := route(9); next != 2 || hops != 2 {
		t.Fatalf("RREP did not replace the learned route: via %v, %d hops; want via 2, 2 hops", next, hops)
	}
	r.LearnRoute(9, 7, 1)
	if next, hops := route(9); next != 2 || hops != 2 {
		t.Fatalf("learned route replaced a fresh sequenced one: via %v, %d hops", next, hops)
	}

	r.LearnRoute(2, 7, 2)
	if next, hops := route(2); next != 2 || hops != 1 {
		t.Fatalf("learned route replaced the hello route: via %v, %d hops", next, hops)
	}
}

// TestLearnRouteSendsPendingDiscovery: learning a route to a
// destination whose discovery is pending sends the queued packet at
// once and ends the discovery, with no retry.
func TestLearnRouteSendsPendingDiscovery(t *testing.T) {
	w := buildWorld(t, testworld.Line(2, 50))
	r := w.routers[0]
	w.Sched.After(0, func() {
		w.stacks[0].SendUnicast(payload(1, 2))
		if r.pending[2] == nil {
			t.Fatal("no discovery pending before any hello")
		}
		r.LearnRoute(2, 2, 1)
		if r.pending[2] != nil {
			t.Fatal("discovery still pending after the route was learned")
		}
	})
	w.Sched.Run(5 * time.Second)
	if w.rxs[1] != 1 {
		t.Fatalf("destination deliveries = %d, want 1", w.rxs[1])
	}
	if st := r.Stats(); st.RREQsOriginated != 1 || st.DiscoveryFails != 0 {
		t.Fatalf("%d RREQs and %d failed discoveries, want the one RREQ sent before learning", st.RREQsOriginated, st.DiscoveryFails)
	}
}

// TestLearnRouteAllocatesNothing: every gossip request its node
// receives offers AODV a route; on an entry the table holds, learning
// allocates nothing, whether it keeps the route or refills it.
func TestLearnRouteAllocatesNothing(t *testing.T) {
	r := buildWorld(t, testworld.Line(1, 50)).routers[0]
	r.LearnRoute(9, 2, 3)
	refill := false
	if allocs := testing.AllocsPerRun(1000, func() {
		if refill {
			r.routes.Ref(9).valid = false
		}
		refill = !refill
		r.LearnRoute(9, 2, 3)
	}); allocs != 0 {
		t.Fatalf("LearnRoute on a held entry allocates %v times, want 0", allocs)
	}
}

// TestUnsequencedFillClearsSeqValid: a sequenced route that expires and
// is refilled by a hello carries no sequence number any more (RFC 3561
// §6.2), so the node must not answer a route request from it as an
// intermediate; it relays the request instead.
func TestUnsequencedFillClearsSeqValid(t *testing.T) {
	w := buildWorld(t, testworld.Line(1, 50))
	r := w.routers[0]
	r.onRREP(pkt.NewPacket(2, 1, &pkt.RREP{Dst: 9, DstSeq: 5, Orig: 1, HopCount: 1}), 2)
	if _, ok := r.RouteHops(9); !ok {
		t.Fatal("precondition: the RREP installed no route to 9")
	}
	w.Sched.Run(w.Sched.Now() + DefaultConfig().ActiveRouteTimeout + time.Second)
	r.onHello(pkt.NewPacket(9, pkt.Broadcast, &pkt.Hello{Seq: 1}), 9)
	if hops, ok := r.RouteHops(9); !ok || hops != 1 {
		t.Fatalf("precondition: the hello did not refill the expired route (hops %d, ok %v)", hops, ok)
	}

	r.onRREQ(pkt.NewPacket(5, pkt.Broadcast, &pkt.RREQ{ID: 1, Dst: 9, Orig: 5, OrigSeq: 1, Flags: pkt.RREQUnknownSeq, HopCount: 1}), 2)
	if st := r.Stats(); st.RREPsOriginated != 0 || st.RREQsForwarded != 1 {
		t.Fatalf("%d RREPs answered, %d RREQs relayed; want the request relayed, not answered from an unsequenced route", st.RREPsOriginated, st.RREQsForwarded)
	}
}

// TestDiscoveryAllocatesNothing: on the line 1-2-3, node 2 holds a route
// to 3. Once warmed up, a cycle in which node 1 forgets its route to 3,
// queues a packet for it, sends the TTL-1 ring, takes node 2's reply and
// sends the queued packet allocates nothing: the discovery record, its
// queue and its timeout callback are reused.
func TestDiscoveryAllocatesNothing(t *testing.T) {
	w := buildWorld(t, testworld.Line(3, 50))
	w.Sched.After(time.Second, func() { w.stacks[1].SendUnicast(payload(2, 3)) })
	w.Sched.Run(3 * time.Second)
	r := w.routers[0]
	body := &pkt.GossipRep{Group: 1, Responder: 1}
	cycle := func() {
		r.routes.Delete(pkt.NodeID(3).Uint64())
		w.stacks[0].SendUnicast(w.stacks[0].NewPacket(3, body))
		w.Sched.Run(w.Sched.Now() + 200*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	before, rxBefore := r.Stats(), w.rxs[2]
	allocs := testing.AllocsPerRun(100, cycle)
	st := r.Stats()
	rreqs, discoveries := st.RREQsOriginated-before.RREQsOriginated, st.Discoveries-before.Discoveries
	if got := w.rxs[2] - rxBefore; got != 101 || discoveries != 101 || rreqs != 101 || len(r.pending) != 0 {
		t.Fatalf("%d of 101 packets delivered, %d RREQs in %d discoveries, %d pending: not one TTL-1 ring per cycle", got, rreqs, discoveries, len(r.pending))
	}
	if allocs != 0 {
		t.Fatalf("a discovery cycle allocates %v times, want 0", allocs)
	}
}
