package odmrp

import (
	"fmt"
	"testing"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/geom"
	"anongossip/internal/gossip"
	"anongossip/internal/mac"
	"anongossip/internal/mobility"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

const group pkt.GroupID = 0xE0000001

type oworld struct {
	sched     *sim.Scheduler
	routers   []*Router
	delivered []int
}

// newStack puts a network layer on the simulated MAC and radio.
func newStack(t *testing.T, sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID, pos mobility.Model) *node.Stack {
	t.Helper()
	rt, err := mac.New(sched, rng.Derive(fmt.Sprintf("mac/%d", id)), medium, id, pos, mac.DefaultConfig(), mac.Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return node.NewOnRuntime(rt)
}

func buildO(t *testing.T, positions []geom.Point, members []int) *oworld {
	t.Helper()
	w := &oworld{sched: sim.NewScheduler(), delivered: make([]int, len(positions))}
	medium := radio.NewMedium(w.sched, radio.Params{Range: 60})
	rng := sim.NewRNG(77)
	isMember := map[int]bool{}
	for _, m := range members {
		isMember[m] = true
	}
	for i, p := range positions {
		i := i
		id := pkt.NodeID(i + 1)
		st := newStack(t, w.sched, rng.Derive(id.String()), medium, id, mobility.Static{P: p})
		st.SetRouter(node.NullRouter{})
		r := New(st, rng.Derive("o/"+id.String()), DefaultConfig())
		if isMember[i] {
			r.Join(group)
		}
		r.OnDeliver(func(pkt.GroupID, *pkt.Data, pkt.NodeID) { w.delivered[i]++ })
		w.routers = append(w.routers, r)
	}
	return w
}

func line(n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: float64(i) * 50}
	}
	return out
}

func TestMeshFormsAndDelivers(t *testing.T) {
	w := buildO(t, line(4), []int{0, 3})
	// The first send activates the mesh; give a refresh cycle, then the
	// stream flows.
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	for i := 0; i < 10; i++ {
		w.sched.After(5*time.Second+sim.Time(i)*200*time.Millisecond, func() {
			_, _ = w.routers[0].SendData(group)
		})
	}
	w.sched.Run(10 * time.Second)

	// The first packet may precede the mesh; the 10 later ones must all
	// arrive.
	if w.delivered[3] < 10 {
		t.Fatalf("member 4 delivered %d, want >= 10", w.delivered[3])
	}
	// Interior nodes joined the forwarding group and forwarded.
	if w.routers[1].Stats().DataForwarded == 0 || w.routers[2].Stats().DataForwarded == 0 {
		t.Fatal("interior nodes did not join the forwarding group")
	}
	// Non-members never deliver.
	if w.delivered[1] != 0 || w.delivered[2] != 0 {
		t.Fatal("forwarding-group relays delivered data")
	}
}

func TestQueriesAndRepliesFlow(t *testing.T) {
	w := buildO(t, line(3), []int{0, 2})
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(8 * time.Second)

	if w.routers[0].Stats().QueriesSent == 0 {
		t.Fatal("source sent no join queries")
	}
	if w.routers[1].Stats().QueriesForwarded == 0 {
		t.Fatal("relay did not reflood the query")
	}
	if w.routers[2].Stats().RepliesSent == 0 {
		t.Fatal("member answered no query")
	}
	if w.routers[1].Stats().RepliesForwarded == 0 {
		t.Fatal("relay did not pass the join reply upstream")
	}
}

func TestMeshSoftStateExpires(t *testing.T) {
	w := buildO(t, line(3), []int{0, 2})
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(8 * time.Second)
	if len(w.routers[1].NextHops(group)) == 0 {
		t.Fatal("precondition: relay has no mesh links")
	}
	// Stop the source's refresh; links must decay past MeshLifetime.
	gs := w.routers[0].groups[group]
	gs.refreshTimer.Cancel()
	w.sched.Run(8*time.Second + 2*DefaultConfig().MeshLifetime)
	if got := w.routers[1].NextHops(group); len(got) != 0 {
		t.Fatalf("mesh links survived expiry: %v", got)
	}
}

func TestSendDataRequiresMembership(t *testing.T) {
	w := buildO(t, line(1), nil)
	if _, err := w.routers[0].SendData(group); err == nil {
		t.Fatal("non-member SendData succeeded")
	}
}

func TestGossipOverODMRP(t *testing.T) {
	// The paper's §5.5 claim: AG layers over ODMRP unchanged. Build the
	// full combination and recover losses through the mesh.
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, radio.Params{Range: 60})
	rng := sim.NewRNG(99)

	var routers []*Router
	var engines []*gossip.Engine
	positions := line(4)
	members := map[int]bool{0: true, 3: true}
	for i, p := range positions {
		id := pkt.NodeID(i + 1)
		st := newStack(t, sched, rng.Derive(id.String()), medium, id, mobility.Static{P: p})
		// Gossip replies are unicast: AODV supplies the routes, exactly
		// as in the MAODV deployment.
		uni := aodv.New(st, rng.Derive("a/"+id.String()), aodv.DefaultConfig())
		uni.Start()
		r := New(st, rng.Derive("o/"+id.String()), DefaultConfig())
		gcfg := gossip.DefaultConfig()
		gcfg.PAnon = 1
		eng := gossip.New(st, r, rng.Derive("g/"+id.String()), gcfg)
		eng.SetHopEstimator(uni.RouteHops)
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
	sched.After(time.Second, func() { _, _ = routers[0].SendData(group) })
	sched.After(6*time.Second, func() {
		for s := uint32(1); s <= 12; s++ {
			d := pkt.Data{Group: group, Origin: 9, Seq: s, PayloadLen: 64}
			engines[3].OnTreeData(group, &d, 0)
			if s%3 != 0 {
				engines[0].OnTreeData(group, &d, 0)
			}
		}
	})
	sched.Run(40 * time.Second)

	st := engines[0].Stats()
	if st.ReplyMsgsNew != 4 {
		t.Fatalf("AG over ODMRP recovered %d packets, want 4 (stats %+v)", st.ReplyMsgsNew, st)
	}
}

func TestNextHopsSorted(t *testing.T) {
	w := buildO(t, line(3), []int{0, 2})
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(8 * time.Second)
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

// TestNewRejectsNonPositiveCacheSize pins the constructor's check: a
// duplicate ring with no slot would index out of range on the first
// data packet, long after the misconfiguration.
func TestNewRejectsNonPositiveCacheSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		cfg := DefaultConfig()
		cfg.CacheSize = size
		sched := sim.NewScheduler()
		st := newStack(t, sched, sim.NewRNG(1), radio.NewMedium(sched, radio.Params{Range: 60}), 1, mobility.Static{})
		func() {
			defer func() {
				if got := recover(); got != "odmrp: CacheSize must be positive" {
					t.Errorf("CacheSize %d: New panicked with %v, want the named panic", size, got)
				}
			}()
			New(st, sim.NewRNG(2), cfg)
		}()
	}
}
