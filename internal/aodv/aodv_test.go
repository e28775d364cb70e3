package aodv

import (
	"fmt"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mac"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

type world struct {
	sched   *sim.Scheduler
	medium  *radio.Medium
	stacks  []*node.Stack
	routers []*Router
	rxs     []int // GossipRep deliveries per node
}

// buildWorld wires stacks+AODV at the given positions (60 m range) and
// registers a payload handler (GossipRep stands in for any transparently
// routed unicast traffic).
func buildWorld(t *testing.T, positions []geom.Point, models ...mobility.Model) *world {
	t.Helper()
	w := &world{sched: sim.NewScheduler()}
	w.medium = radio.NewMedium(w.sched, radio.Params{Range: 60})
	rng := sim.NewRNG(7)
	w.rxs = make([]int, len(positions))
	for i := range positions {
		i := i
		var m mobility.Model = mobility.Static{P: positions[i]}
		if models != nil && models[i] != nil {
			m = models[i]
		}
		id := pkt.NodeID(i + 1)
		rt, err := mac.New(w.sched, rng.Derive(id.String()).Derive(fmt.Sprintf("mac/%d", id)), w.medium, id, m, mac.DefaultConfig(), mac.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		st := node.NewOnRuntime(rt)
		r := New(st, rng.Derive("aodv/"+id.String()), DefaultConfig())
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

// linePositions returns n points 50 m apart (range 60 m: only adjacent
// nodes connect).
func linePositions(n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: float64(i) * 50}
	}
	return out
}

func TestRouteDiscoveryAndDelivery(t *testing.T) {
	w := buildWorld(t, linePositions(4))
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.sched.Run(5 * time.Second)

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
	w := buildWorld(t, linePositions(3))
	w.sched.After(time.Second, func() {
		for i := 0; i < 5; i++ {
			w.stacks[0].SendUnicast(payload(1, 3))
		}
	})
	w.sched.Run(5 * time.Second)
	if w.rxs[2] != 5 {
		t.Fatalf("deliveries = %d, want 5", w.rxs[2])
	}
}

func TestDiscoveryFailsForUnreachable(t *testing.T) {
	w := buildWorld(t, []geom.Point{{X: 0}, {X: 500}})
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 2)) })
	w.sched.Run(20 * time.Second)

	st := w.routers[0].Stats()
	if st.DiscoveryFails != 1 {
		t.Fatalf("DiscoveryFails = %d, want 1", st.DiscoveryFails)
	}
	// First try + RREQRetries retries.
	if want := uint64(1 + DefaultConfig().RREQRetries); st.RREQsOriginated != want {
		t.Fatalf("RREQsOriginated = %d, want %d", st.RREQsOriginated, want)
	}
	if st.PacketsDropped == 0 {
		t.Fatal("queued packet was not counted as dropped")
	}
}

func TestHelloNeighborDiscovery(t *testing.T) {
	w := buildWorld(t, linePositions(2))
	w.sched.Run(3 * time.Second)
	if !w.routers[0].HaveNeighbor(2) || !w.routers[1].HaveNeighbor(1) {
		t.Fatal("hello beacons did not establish neighbourhood")
	}
	// Hello also installs the 1-hop route.
	if nh, ok := w.routers[0].NextHop(2); !ok || nh != 2 {
		t.Fatalf("1-hop route = (%v, %v), want (2, true)", nh, ok)
	}
}

// departSpeed is a departing node's declared and actual speed: fast
// enough to leave a 60 m neighbourhood within a tenth of a second.
const departSpeed = 1000 // m/s

// departing is a node that stays at a until leaveAt, then travels in a
// straight line to b at departSpeed.
type departing struct {
	a, b    geom.Point
	leaveAt sim.Time
}

func (d departing) Position(t sim.Time) geom.Point {
	if t <= d.leaveAt {
		return d.a
	}
	frac := departSpeed * (t - d.leaveAt).Seconds() / d.a.Dist(d.b)
	if frac >= 1 {
		return d.b
	}
	return d.a.Lerp(d.b, frac)
}

func (departing) MaxSpeed() float64 { return departSpeed }

func TestHelloLossBreaksLink(t *testing.T) {
	pos := linePositions(2)
	models := []mobility.Model{
		nil,
		departing{a: pos[1], b: geom.Point{X: 5000}, leaveAt: 5 * time.Second},
	}
	w := buildWorld(t, pos, models...)

	var broken []pkt.NodeID
	w.routers[0].OnLinkBreak(func(n pkt.NodeID) { broken = append(broken, n) })

	w.sched.Run(4 * time.Second)
	if !w.routers[0].HaveNeighbor(2) {
		t.Fatal("precondition: neighbour not established")
	}
	w.sched.Run(12 * time.Second)
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

func TestMACFailureInvalidatesRouteAndSalvages(t *testing.T) {
	// Line 1-2-3; node 2 leaves after routes are set up. The next
	// packet from 1 fails at the MAC, the route must be invalidated, a
	// rediscovery happens, and with no alternative path the packet drops.
	pos := linePositions(3)
	models := []mobility.Model{
		nil,
		departing{a: pos[1], b: geom.Point{X: 5000}, leaveAt: 6 * time.Second},
		nil,
	}
	w := buildWorld(t, pos, models...)
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 3)) })
	w.sched.Run(5 * time.Second)
	if w.rxs[2] != 1 {
		t.Fatal("precondition: initial delivery failed")
	}
	// Send the second packet after node 2 leaves at t=6s.
	w.sched.After(2*time.Second, func() { w.stacks[0].SendUnicast(payload(1, 3)) })
	w.sched.Run(40 * time.Second)

	if w.rxs[2] != 1 {
		t.Fatalf("deliveries = %d, want still 1 (no path after departure)", w.rxs[2])
	}
	st := w.routers[0].Stats()
	if st.LinkBreaks == 0 {
		t.Fatal("MAC failure did not register a link break")
	}
	if st.PacketsSalvaged == 0 {
		t.Fatal("failed packet was not salvaged into rediscovery")
	}
	if _, ok := w.routers[0].NextHop(3); ok {
		t.Fatal("stale route still valid after link break")
	}
}

// TestSalvagedPacketNeverSpare: a unicast the MAC gives up on comes back
// as a failure, not into the stack's spares. onMACFailure re-sends that
// same packet, which waits for a new route in the discovery queue, and
// no packet the node builds meanwhile is built in its storage.
func TestSalvagedPacketNeverSpare(t *testing.T) {
	pos := linePositions(3)
	models := []mobility.Model{
		nil,
		departing{a: pos[1], b: geom.Point{X: 5000}, leaveAt: 6 * time.Second},
		nil,
	}
	w := buildWorld(t, pos, models...)
	st := w.stacks[0]
	w.sched.After(time.Second, func() { st.SendUnicast(payload(1, 3)) })
	w.sched.Run(5 * time.Second)
	if w.rxs[2] != 1 {
		t.Fatal("precondition: initial delivery failed")
	}
	// Node 2 is gone at 6 s: this packet's unicast to it fails.
	var p *pkt.Packet
	w.sched.After(2*time.Second, func() {
		p = st.NewPacket(3, &pkt.GossipRep{Group: 1, Responder: 1, WalkHops: 7})
		st.SendUnicast(p)
	})
	for w.routers[0].Stats().PacketsSalvaged == 0 {
		if _, done := w.sched.RunAll(1); done {
			t.Fatal("run drained before the failed packet was salvaged")
		}
	}
	d := w.routers[0].pending[3]
	if d == nil || len(d.queued) != 1 || d.queued[0] != p {
		t.Fatalf("salvaged packet not waiting for a route: %+v", d)
	}
	for i := 0; i < 4; i++ {
		if q := st.NewPacket(3, &pkt.GossipRep{Group: 1, Responder: 1}); q == p {
			t.Fatalf("build %d reused the salvaged packet's storage while it is queued", i)
		}
	}
	if rep := p.Body.(*pkt.GossipRep); p.Dst != 3 || rep.WalkHops != 7 || rep.Group != 1 {
		t.Fatalf("queued packet rewritten: %+v %+v", p, rep)
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	w := buildWorld(t, linePositions(4))
	// Establish 1->4; then ask from node 2, which should get an answer
	// without a new full flood reaching node 4's neighbourhood... We
	// simply verify node 2 answers from its fresh route: node 1
	// rediscovers immediately after the first exchange.
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.sched.Run(4 * time.Second)

	before := w.routers[3].Stats().RREPsOriginated
	// Expire nothing: route at node 2 toward 4 is fresh. New request
	// from node 1 for 4 after deleting its own route: force by another
	// packet after invalidating locally.
	w.sched.After(0, func() {
		// Simulate local route loss at node 1 only.
		w.routers[0].routes.Delete(pkt.NodeID(4).Uint64())
		w.stacks[0].SendUnicast(payload(1, 4))
	})
	w.sched.Run(8 * time.Second) // Run horizons are absolute simulation times

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
	pos := linePositions(4)
	models := []mobility.Model{
		nil, nil, nil,
		departing{a: pos[3], b: geom.Point{X: 9000}, leaveAt: 6 * time.Second},
	}
	w := buildWorld(t, pos, models...)
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 4)) })
	w.sched.Run(5 * time.Second)
	if w.rxs[3] != 1 {
		t.Fatal("precondition: delivery failed")
	}
	if _, ok := w.routers[1].NextHop(4); !ok {
		t.Fatal("precondition: node 2 lacks route to 4")
	}
	w.sched.Run(15 * time.Second) // hello loss at node 3 + RERR propagation

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
	w := buildWorld(t, linePositions(2))
	w.sched.After(time.Second, func() { w.stacks[0].SendUnicast(payload(1, 9)) })
	w.sched.Run(30 * time.Second)
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
	w := buildWorld(t, linePositions(1))
	r := w.routers[0]
	// Sweeps run every HelloInterval (600 ms) from 0: the first write
	// expires at 6.1 s and is dropped by the 6.6 s sweep (its mark was
	// made at 1.2 s), which the rewrite at 6.2 s precedes.
	w.sched.At(1100*time.Millisecond, func() { r.NoteOwnRREQ(7) })
	w.sched.At(6200*time.Millisecond, func() { r.NoteOwnRREQ(7) })
	w.sched.Run(7 * time.Second)
	if exp, ok := r.seen.Get(seenKey(r.ID(), 7)); !ok || exp != 11200*time.Millisecond || len(r.seenLog) != 1 {
		t.Fatalf("after the 6.6 s sweep: entry %v (present %v), %d writes logged; want the rewrite, expiring at 11.2 s, logged alone", exp, ok, len(r.seenLog))
	}
	w.sched.Run(13 * time.Second)
	if r.seen.Len() != 0 || len(r.seenLog) != 0 {
		t.Fatalf("after its expiry: %d entries, %d writes logged", r.seen.Len(), len(r.seenLog))
	}
}

// TestOnHeardAllocatesNothing: refreshing a known neighbour — what
// every frame the node hears does — allocates nothing.
func TestOnHeardAllocatesNothing(t *testing.T) {
	r := buildWorld(t, linePositions(1)).routers[0]
	for n := pkt.NodeID(2); n < 40; n++ {
		r.onHeard(n)
	}
	n := pkt.NodeID(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.onHeard(n)
		n = 2 + (n-1)%38
	}); allocs != 0 {
		t.Fatalf("onHeard of a known neighbour allocates %v times, want 0", allocs)
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
// back.
func TestTicksAllocateNothing(t *testing.T) {
	w := buildWorld(t, linePositions(3))
	w.sched.Run(10 * time.Second)
	hellos := func() (n uint64) {
		for _, r := range w.routers {
			n += r.Stats().HellosSent
		}
		return n
	}
	var sent uint64
	allocs := testing.AllocsPerRun(1, func() {
		before := hellos()
		w.sched.Run(w.sched.Now() + time.Minute)
		sent = hellos() - before
	})
	if sent < 250 || allocs != 0 {
		t.Fatalf("a minute of ticks allocates %v times for %d hellos, want 0", allocs, sent)
	}
	for _, r := range w.routers {
		if r.Stats().LinkBreaks != 0 {
			t.Fatal("a static line broke a link: not the steady state under test")
		}
	}
}

func TestQueueBounded(t *testing.T) {
	w := buildWorld(t, []geom.Point{{X: 0}, {X: 500}})
	w.sched.After(time.Second, func() {
		for i := 0; i < DefaultConfig().MaxQueuedPerDest+5; i++ {
			w.stacks[0].SendUnicast(payload(1, 2))
		}
	})
	w.sched.Run(2 * time.Second)
	d := w.routers[0].pending[2]
	if d == nil {
		t.Fatal("no pending discovery")
	}
	if len(d.queued) != DefaultConfig().MaxQueuedPerDest {
		t.Fatalf("queued = %d, want cap %d", len(d.queued), DefaultConfig().MaxQueuedPerDest)
	}
}
