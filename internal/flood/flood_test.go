package flood

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
)

const group pkt.GroupID = 0xE0000001

type fworld struct {
	*testworld.World
	routers   []*Router
	delivered []int
}

// buildF puts a flooding-only network layer (no unicast routing) on
// the simulated MAC and radio at each position (60 m range).
func buildF(t *testing.T, positions []geom.Point, members []int) *fworld {
	t.Helper()
	rng := sim.NewRNG(5)
	w := &fworld{World: testworld.New(t, 60, testworld.Static(positions...), testworld.Labelled(rng, "")), delivered: make([]int, len(positions))}
	for i, rt := range w.MACs {
		st := node.NewOnRuntime(rt)
		r := New(st, rng.Derive("f/"+st.ID().String()), DefaultConfig())
		if slices.Contains(members, i) {
			r.Join(group)
		}
		r.OnDeliver(func(pkt.GroupID, *pkt.Data, pkt.NodeID) { w.delivered[i]++ })
		w.routers = append(w.routers, r)
	}
	return w
}

func TestFloodReachesAllMembers(t *testing.T) {
	w := buildF(t, testworld.Line(5, 50), []int{0, 2, 4})
	w.Sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.Sched.Run(5 * time.Second)

	if w.delivered[2] != 1 || w.delivered[4] != 1 {
		t.Fatalf("deliveries = %v, want members 3 and 5 to get 1", w.delivered)
	}
	// Non-members relay but do not deliver.
	if w.delivered[1] != 0 || w.delivered[3] != 0 {
		t.Fatalf("non-members delivered: %v", w.delivered)
	}
	if w.routers[1].Stats().DataRebroadcast == 0 {
		t.Fatal("relay never rebroadcast")
	}
}

func TestFloodEveryNodeRebroadcastsOnce(t *testing.T) {
	w := buildF(t, testworld.Line(4, 50), []int{0, 3})
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(5 * time.Second)

	for i := 1; i < 4; i++ {
		if got := w.routers[i].Stats().DataRebroadcast; got != 1 {
			t.Fatalf("node %d rebroadcast %d times, want 1", i+1, got)
		}
	}
}

func TestFloodDuplicateSuppression(t *testing.T) {
	// A triangle: every node hears every other, so each packet arrives
	// twice at each non-source node.
	w := buildF(t, []geom.Point{{X: 0}, {X: 40}, {X: 20, Y: 30}}, []int{0, 1, 2})
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(5 * time.Second)

	if w.delivered[1] != 1 || w.delivered[2] != 1 {
		t.Fatalf("deliveries = %v, want exactly 1 each", w.delivered)
	}
	dups := w.routers[1].Stats().DataDuplicates + w.routers[2].Stats().DataDuplicates
	if dups == 0 {
		t.Fatal("no duplicates recorded in a triangle")
	}
}

func TestFloodRequiresMembership(t *testing.T) {
	w := buildF(t, testworld.Line(1, 50), nil)
	if _, err := w.routers[0].SendData(group); err == nil {
		t.Fatal("non-member SendData succeeded")
	}
}

func TestFloodLeave(t *testing.T) {
	w := buildF(t, testworld.Line(2, 50), []int{0, 1})
	w.routers[1].Leave(group)
	w.Sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.Sched.Run(3 * time.Second)
	if w.delivered[1] != 0 {
		t.Fatal("left member still delivered")
	}
	if w.routers[1].IsMember(group) {
		t.Fatal("IsMember true after Leave")
	}
}

// TestFloodCacheBounded checks cacheSize bounds the duplicate filter:
// of the cacheSize+16 packets a node floods, a copy of the newest heard
// back is still a duplicate and a copy of the oldest is new again.
func TestFloodCacheBounded(t *testing.T) {
	const sent = cacheSize + 16
	rng := sim.NewRNG(1)
	w := testworld.New(t, 60, nil, nil)
	r := New(node.NewOnRuntime(w.Add(t, 1, mobility.Static{}, rng.Derive("mac/1"))), rng.Derive("f"), DefaultConfig())
	r.Join(group)
	echo := func(seq uint32) {
		r.onData(pkt.NewPacket(2, pkt.Broadcast, &pkt.Data{Group: group, Origin: 1, Seq: seq, PayloadLen: 64}), 2)
	}
	w.Sched.After(0, func() {
		for range sent {
			_, _ = r.SendData(group)
		}
		echo(sent)
		echo(1)
	})
	w.Sched.Run(time.Second)
	if st := r.Stats(); st.DataDuplicates != 1 || st.DataDelivered != 1 {
		t.Fatalf("echoes of seq %d and 1: %d duplicates, %d delivered; want the newest suppressed and the oldest evicted", sent, st.DataDuplicates, st.DataDelivered)
	}
}
