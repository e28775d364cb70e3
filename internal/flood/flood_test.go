package flood

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

const group pkt.GroupID = 0xE0000001

type fworld struct {
	sched     *sim.Scheduler
	routers   []*Router
	delivered []int
}

// newStack puts a flooding-only network layer (no unicast routing) on
// the simulated MAC and radio.
func newStack(t *testing.T, sched *sim.Scheduler, rng *sim.RNG, medium *radio.Medium, id pkt.NodeID, pos mobility.Model) *node.Stack {
	t.Helper()
	rt, err := mac.New(sched, rng.Derive(fmt.Sprintf("mac/%d", id)), medium, id, pos, mac.DefaultConfig(), mac.Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	st := node.NewOnRuntime(rt)
	st.SetRouter(node.NullRouter{})
	return st
}

func buildF(t *testing.T, positions []geom.Point, members []int) *fworld {
	t.Helper()
	w := &fworld{sched: sim.NewScheduler(), delivered: make([]int, len(positions))}
	medium := radio.NewMedium(w.sched, radio.Params{Range: 60})
	rng := sim.NewRNG(5)
	isMember := map[int]bool{}
	for _, m := range members {
		isMember[m] = true
	}
	for i, p := range positions {
		i := i
		id := pkt.NodeID(i + 1)
		st := newStack(t, w.sched, rng.Derive(id.String()), medium, id, mobility.Static{P: p})
		r := New(st, rng.Derive("f/"+id.String()), DefaultConfig())
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

func TestFloodReachesAllMembers(t *testing.T) {
	w := buildF(t, line(5), []int{0, 2, 4})
	w.sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.sched.Run(5 * time.Second)

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
	w := buildF(t, line(4), []int{0, 3})
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(5 * time.Second)

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
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(5 * time.Second)

	if w.delivered[1] != 1 || w.delivered[2] != 1 {
		t.Fatalf("deliveries = %v, want exactly 1 each", w.delivered)
	}
	dups := w.routers[1].Stats().DataDuplicates + w.routers[2].Stats().DataDuplicates
	if dups == 0 {
		t.Fatal("no duplicates recorded in a triangle")
	}
}

func TestFloodRequiresMembership(t *testing.T) {
	w := buildF(t, line(1), nil)
	if _, err := w.routers[0].SendData(group); err == nil {
		t.Fatal("non-member SendData succeeded")
	}
}

func TestFloodLeave(t *testing.T) {
	w := buildF(t, line(2), []int{0, 1})
	w.routers[1].Leave(group)
	w.sched.After(time.Second, func() { _, _ = w.routers[0].SendData(group) })
	w.sched.Run(3 * time.Second)
	if w.delivered[1] != 0 {
		t.Fatal("left member still delivered")
	}
	if w.routers[1].IsMember(group) {
		t.Fatal("IsMember true after Leave")
	}
}

// TestFloodCacheBounded checks CacheSize bounds the duplicate filter:
// of the 20 packets a node floods through a 4-key cache, a copy of the
// newest heard back is still a duplicate and a copy of the oldest is
// new again.
func TestFloodCacheBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSize = 4
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	r := New(newStack(t, sched, rng, radio.NewMedium(sched, radio.Params{Range: 60}), 1, mobility.Static{}), rng.Derive("f"), cfg)
	r.Join(group)
	echo := func(seq uint32) {
		r.onData(pkt.NewPacket(2, pkt.Broadcast, &pkt.Data{Group: group, Origin: 1, Seq: seq, PayloadLen: 64}), 2)
	}
	sched.After(0, func() {
		for i := 0; i < 20; i++ {
			_, _ = r.SendData(group)
		}
		echo(20)
		echo(1)
	})
	sched.Run(time.Second)
	if st := r.Stats(); st.DataDuplicates != 1 || st.DataDelivered != 1 {
		t.Fatalf("echoes of seq 20 and 1: %d duplicates, %d delivered; want the newest suppressed and the oldest evicted", st.DataDuplicates, st.DataDelivered)
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
				if got := recover(); got != "flood: CacheSize must be positive" {
					t.Errorf("CacheSize %d: New panicked with %v, want the named panic", size, got)
				}
			}()
			New(st, sim.NewRNG(2), cfg)
		}()
	}
}
