package odmrp

import (
	"slices"
	"testing"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/geom"
	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
)

const group pkt.GroupID = 0xE0000001

type oworld struct {
	*testworld.World
	routers   []*Router
	delivered []int
}

// buildO puts ODMRP, with no unicast routing under it, on the simulated
// MAC and radio at each position (60 m range).
func buildO(t *testing.T, positions []geom.Point, members []int) *oworld {
	t.Helper()
	rng := sim.NewRNG(77)
	w := &oworld{World: testworld.New(t, 60, testworld.Static(positions...), testworld.Labelled(rng, "")), delivered: make([]int, len(positions))}
	for i, rt := range w.MACs {
		st := node.NewOnRuntime(rt)
		r := New(st, rng.Derive("o/"+st.ID().String()))
		if slices.Contains(members, i) {
			r.Join(group)
		}
		r.OnDeliver(func(pkt.GroupID, *pkt.Data, pkt.NodeID) { w.delivered[i]++ })
		w.routers = append(w.routers, r)
	}
	return w
}

func TestMeshFormsAndDelivers(t *testing.T) {
	w := buildO(t, testworld.Line(4, 50), []int{0, 3})
	// The first send activates the mesh; give a refresh cycle, then the
	// stream flows.
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	for i := 0; i < 10; i++ {
		w.Sched.After(5*time.Second+sim.Time(i)*200*time.Millisecond, func() {
			_, _ = w.routers[0].SendData(group)
		})
	}
	w.Sched.Run(10 * time.Second)

	// The first packet may precede the mesh; the 10 later ones must all
	// arrive.
	if w.delivered[3] < 10 {
		t.Fatalf("member 4 delivered %d, want >= 10", w.delivered[3])
	}
	// Interior nodes joined the forwarding group and forwarded.
	if w.routers[1].stats.DataForwarded == 0 || w.routers[2].stats.DataForwarded == 0 {
		t.Fatal("interior nodes did not join the forwarding group")
	}
	// Non-members never deliver.
	if w.delivered[1] != 0 || w.delivered[2] != 0 {
		t.Fatal("forwarding-group relays delivered data")
	}
}

func TestQueriesAndRepliesFlow(t *testing.T) {
	w := buildO(t, testworld.Line(3, 50), []int{0, 2})
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(8 * time.Second)

	if w.routers[0].stats.QueriesSent == 0 {
		t.Fatal("source sent no join queries")
	}
	if w.routers[1].stats.QueriesForwarded == 0 {
		t.Fatal("relay did not reflood the query")
	}
	if w.routers[2].stats.RepliesSent == 0 {
		t.Fatal("member answered no query")
	}
	if w.routers[1].stats.RepliesForwarded == 0 {
		t.Fatal("relay did not pass the join reply upstream")
	}
}

func TestMeshSoftStateExpires(t *testing.T) {
	w := buildO(t, testworld.Line(3, 50), []int{0, 2})
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(8 * time.Second)
	if len(w.routers[1].NextHops(group)) == 0 {
		t.Fatal("precondition: relay has no mesh links")
	}
	// Stop the source's refresh; links must decay past meshLifetime.
	gs := w.routers[0].groups[group]
	gs.refreshTimer.Cancel()
	w.Sched.Run(8*time.Second + 2*meshLifetime)
	if got := w.routers[1].NextHops(group); len(got) != 0 {
		t.Fatalf("mesh links survived expiry: %v", got)
	}
}

func TestSendDataRequiresMembership(t *testing.T) {
	w := buildO(t, testworld.Line(1, 50), nil)
	if _, err := w.routers[0].SendData(group); err == nil {
		t.Fatal("non-member SendData succeeded")
	}
}

func TestGossipOverODMRP(t *testing.T) {
	// The paper's §5.5 claim: AG layers over ODMRP unchanged. Build the
	// full combination and recover losses through the mesh.
	rng := sim.NewRNG(99)
	w := testworld.New(t, 60, testworld.Static(testworld.Line(4, 50)...), testworld.Labelled(rng, ""))

	var routers []*Router
	var engines []*gossip.Engine
	members := map[int]bool{0: true, 3: true}
	for i, rt := range w.MACs {
		id := pkt.NodeID(i + 1)
		st := node.NewOnRuntime(rt)
		// Gossip replies are unicast: AODV supplies the routes, exactly
		// as in the MAODV deployment.
		uni := aodv.New(st, rng.Derive("a/"+id.String()), aodv.DefaultConfig())
		uni.Start()
		r := New(st, rng.Derive("o/"+id.String()))
		gcfg := gossip.DefaultConfig()
		gcfg.PAnon = 1
		eng := gossip.New(st, r, rng.Derive("g/"+id.String()), gcfg)
		eng.SetRoutes(uni)
		r.OnDeliver(eng.OnTreeData)
		if members[i] {
			r.Join(group)
			eng.Attach(group)
		}
		routers = append(routers, r)
		engines = append(engines, eng)
	}

	// Activate the mesh, then inject asymmetric knowledge directly into
	// the engines: member 4 holds packets member 1 lost.
	w.Sched.After(time.Second, func() { _, _ = routers[0].SendData(group) })
	w.Sched.After(6*time.Second, func() {
		for s := uint32(1); s <= 12; s++ {
			d := pkt.Data{Group: group, Origin: 9, Seq: s, PayloadLen: 64}
			engines[3].OnTreeData(group, &d, 0)
			if s%3 != 0 {
				engines[0].OnTreeData(group, &d, 0)
			}
		}
	})
	w.Sched.Run(40 * time.Second)

	st := engines[0].Stats()
	if st.ReplyMsgsNew != 4 {
		t.Fatalf("AG over ODMRP recovered %d packets, want 4 (stats %+v)", st.ReplyMsgsNew, st)
	}
}

func TestNextHopsSorted(t *testing.T) {
	w := buildO(t, testworld.Line(3, 50), []int{0, 2})
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(8 * time.Second)
	hops := w.routers[1].NextHops(group)
	for i := 1; i < len(hops); i++ {
		if hops[i].ID < hops[i-1].ID {
			t.Fatalf("next hops unsorted: %v", hops)
		}
	}
	for _, h := range hops {
		if h.Nearest != pkt.NearestUnknown {
			t.Fatalf("ODMRP advertised a nearest-member distance: %v", h)
		}
	}
}

// TestGossipReplyFitsABody pins the wire bound at ODMRP's payload: the
// largest gossip reply, gossip.MaxReplyMsgs data messages, fits a body.
func TestGossipReplyFitsABody(t *testing.T) {
	msgs := make([]pkt.Data, gossip.MaxReplyMsgs)
	for i := range msgs {
		msgs[i].PayloadLen = payloadLen
	}
	if n := (&pkt.GossipRep{Msgs: msgs}).WireSize(); n > pkt.MaxBodySize {
		t.Fatalf("a full gossip reply is %d bytes, past the %d-byte body limit", n, pkt.MaxBodySize)
	}
}
