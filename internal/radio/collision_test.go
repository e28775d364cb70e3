package radio

import (
	"reflect"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// runMatrix executes script against every model × index combination,
// asserts that per-node reception logs and channel statistics are
// identical across all of them, and returns one run's outcome for
// content assertions.
func runMatrix(t *testing.T, rangeM float64, positions []geom.Point,
	script func(sched *sim.Scheduler, nodes []*testNode)) ([][]rxRecord, Stats) {
	t.Helper()
	var firstRxs [][]rxRecord
	var firstStats Stats
	var firstName string
	for _, o := range oracles {
		sched := sim.NewScheduler()
		m := newTestMedium(sched, rangeM, o)
		nodes := build(sched, m.Medium, positions)
		for _, n := range nodes {
			n.tm = m
		}
		script(sched, nodes)
		sched.Run(time.Hour)
		rxs := make([][]rxRecord, len(nodes))
		for i, n := range nodes {
			rxs[i] = n.rxs
		}
		if firstName == "" {
			firstRxs, firstStats, firstName = rxs, m.Stats(), o.String()
			continue
		}
		if !reflect.DeepEqual(rxs, firstRxs) {
			t.Fatalf("%s reception logs diverge from %s:\n%+v\nvs\n%+v",
				o, firstName, rxs, firstRxs)
		}
		if got := m.Stats(); got != firstStats {
			t.Fatalf("%s stats %+v diverge from %s stats %+v", o, got, firstName, firstStats)
		}
	}
	return firstRxs, firstStats
}

// TestMatrixHiddenTerminal: two transmitters out of each other's range
// overlap at the node between them; both receptions must be corrupted
// under every model × index combination.
func TestMatrixHiddenTerminal(t *testing.T) {
	rxs, stats := runMatrix(t, 60, []geom.Point{{X: 0}, {X: 60}, {X: 120}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() { _ = nodes[0].startTx("a", testAirtime) })
			sched.After(testAirtime/4, func() { _ = nodes[2].startTx("b", testAirtime) })
		})
	if len(rxs[1]) != 2 {
		t.Fatalf("middle node got %d receptions, want 2", len(rxs[1]))
	}
	for _, rx := range rxs[1] {
		if rx.ok {
			t.Fatalf("hidden-terminal overlap delivered intact: %+v", rx)
		}
	}
	if stats.Collisions != 2 || stats.Deliveries != 0 {
		t.Fatalf("stats = %+v, want 2 collisions, 0 deliveries", stats)
	}
}

// TestMatrixHalfDuplexTxDuringRx: a node that starts transmitting in
// the middle of a reception corrupts that reception.
func TestMatrixHalfDuplexTxDuringRx(t *testing.T) {
	rxs, _ := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() { _ = nodes[0].startTx("frame", testAirtime) })
			sched.After(testAirtime/2, func() { _ = nodes[1].startTx("own", testAirtime/4) })
		})
	if len(rxs[1]) != 1 || rxs[1][0].ok {
		t.Fatalf("receptions at the mid-reception transmitter: %+v, want 1 corrupted", rxs[1])
	}
}

// TestMatrixHalfDuplexRxWhileTx: a frame arriving at a node that is
// already transmitting is corrupted — even when the node's own
// transmission ends before the frame does.
func TestMatrixHalfDuplexRxWhileTx(t *testing.T) {
	rxs, _ := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() { _ = nodes[1].startTx("own", testAirtime/4) })
			sched.After(testAirtime/8, func() { _ = nodes[0].startTx("frame", testAirtime) })
		})
	if len(rxs[1]) != 1 || rxs[1][0].ok {
		t.Fatalf("receptions at the transmitting node: %+v, want 1 corrupted", rxs[1])
	}
	// Node 0's copy of "own" is corrupted too: node 0 began its own
	// transmission ("frame", at airtime/8) while "own" (on the air
	// until airtime/4) was still arriving — half-duplex cuts it off.
	if len(rxs[0]) != 1 || rxs[0][0].ok {
		t.Fatalf("receptions of 'own': %+v, want 1 corrupted (receiver began transmitting mid-frame)", rxs[0])
	}
}

// TestMatrixHalfDuplexStillTxAtFrameEnd: a long own transmission that
// spans a whole incoming frame corrupts it (checked at frame end).
func TestMatrixHalfDuplexStillTxAtFrameEnd(t *testing.T) {
	rxs, _ := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() { _ = nodes[1].startTx("long", 4*testAirtime) })
			sched.After(testAirtime, func() { _ = nodes[0].startTx("frame", testAirtime) })
		})
	if len(rxs[1]) != 1 || rxs[1][0].ok {
		t.Fatalf("receptions under a spanning own transmission: %+v, want 1 corrupted", rxs[1])
	}
}

// TestMatrixExactOverlap: two transmissions starting at the same
// instant with the same airtime corrupt each other at a common
// receiver, and the transmitters (in range of each other here) corrupt
// each other's copy through half-duplex.
func TestMatrixExactOverlap(t *testing.T) {
	rxs, stats := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}, {X: 100}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() {
				_ = nodes[0].startTx("a", testAirtime)
				_ = nodes[2].startTx("b", testAirtime)
			})
		})
	if len(rxs[1]) != 2 {
		t.Fatalf("middle node got %d receptions, want 2", len(rxs[1]))
	}
	for _, rx := range rxs[1] {
		if rx.ok {
			t.Fatalf("exact-overlap reception delivered intact: %+v", rx)
		}
	}
	// The transmitters hear each other's frame corrupted (half-duplex).
	if len(rxs[0]) != 1 || rxs[0][0].ok || len(rxs[2]) != 1 || rxs[2][0].ok {
		t.Fatalf("transmitter receptions: %+v / %+v, want 1 corrupted each", rxs[0], rxs[2])
	}
	if stats.Deliveries != 0 || stats.Collisions != 4 {
		t.Fatalf("stats = %+v, want 0 deliveries, 4 collisions", stats)
	}
}

// TestMatrixExactBoundarySequentialClean: frame B starting exactly when
// frame A ends is clean when B's transmission was initiated after A
// began — A's finish processing (scheduled at A's start) runs first.
func TestMatrixExactBoundarySequentialClean(t *testing.T) {
	rxs, _ := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			sched.After(0, func() {
				_ = nodes[0].startTx("a", testAirtime)
				// Scheduled now (after A's StartTx), so at A's end this
				// event runs after A's finish: a clean back-to-back pair.
				sched.After(testAirtime, func() { _ = nodes[0].startTx("b", testAirtime) })
			})
		})
	if len(rxs[1]) != 2 || !rxs[1][0].ok || !rxs[1][1].ok {
		t.Fatalf("back-to-back receptions: %+v, want 2 clean", rxs[1])
	}
}

// TestMatrixExactBoundaryEarlyScheduledTxCorrupts pins a deliberate
// wart of the reception semantics, which every model must reproduce: a
// transmission fired at the exact instant another frame ends, from an
// event scheduled before that frame started, runs before the frame's
// finish processing — the frame is still live, so the two corrupt each
// other.
func TestMatrixExactBoundaryEarlyScheduledTxCorrupts(t *testing.T) {
	rxs, _ := runMatrix(t, 100, []geom.Point{{X: 0}, {X: 50}, {X: 100}},
		func(sched *sim.Scheduler, nodes []*testNode) {
			// Scheduled before A starts => lower sequence number than
			// A's finish processing at the same instant.
			sched.After(testAirtime, func() { _ = nodes[2].startTx("b", testAirtime) })
			sched.After(0, func() { _ = nodes[0].startTx("a", testAirtime) })
		})
	if len(rxs[1]) != 2 {
		t.Fatalf("middle node got %d receptions, want 2", len(rxs[1]))
	}
	for _, rx := range rxs[1] {
		if rx.ok {
			t.Fatalf("boundary reception delivered intact: %+v (want both corrupted)", rx)
		}
	}
}

// TestMatrixReentrantStartTxDuringFinish covers handlers transmitting
// from inside reception processing (the MAC answers frames this way):
// a response fired while the original frame's other receptions are
// still being finalised must corrupt exactly those receptions, under
// every model — in the batched model this exercises StartTx re-entering
// mid-walk.
func TestMatrixReentrantStartTxDuringFinish(t *testing.T) {
	var firstRxs [][]rxRecord
	var firstName string
	positions := []geom.Point{{X: 0}, {X: 50}, {X: 100}}
	for _, o := range oracles {
		sched := sim.NewScheduler()
		m := newTestMedium(sched, 100, o)
		nodes := make([]*testNode, len(positions))
		for i, pos := range positions {
			n := &testNode{tm: m}
			id := pkt.NodeID(i + 1)
			n.tr = attach(t, m.Medium, id, mobility.Static{P: pos}, func(frame any, from pkt.NodeID, ok bool) {
				n.rxs = append(n.rxs, rxRecord{frame: frame, from: from, ok: ok, at: sched.Now()})
				// Node 2 (attach order before node 3) answers the
				// original frame immediately, while node 3's reception
				// of it is still unfinalised.
				if i == 1 && frame == "query" {
					_ = n.startTx("reply", testAirtime)
				}
			})
			nodes[i] = n
		}
		sched.After(0, func() { _ = nodes[0].startTx("query", testAirtime) })
		sched.Run(time.Hour)

		rxs := make([][]rxRecord, len(nodes))
		for i, n := range nodes {
			rxs[i] = n.rxs
		}
		if firstName == "" {
			firstRxs, firstName = rxs, o.String()
			continue
		}
		if !reflect.DeepEqual(rxs, firstRxs) {
			t.Fatalf("%s reception logs diverge from %s:\n%+v\nvs\n%+v",
				o, firstName, rxs, firstRxs)
		}
	}
	// Node 2 hears the query cleanly and replies. Node 3's copy of the
	// query is corrupted by the reply starting at the same instant its
	// own copy ends, before its finish is processed; node 3 then hears
	// the reply corrupted too (it started while the query was live
	// there). Node 1 hears the reply cleanly: its own transmission had
	// ended exactly when the reply began.
	if len(firstRxs[1]) != 1 || !firstRxs[1][0].ok {
		t.Fatalf("responder receptions: %+v, want clean query", firstRxs[1])
	}
	if len(firstRxs[0]) != 1 || !firstRxs[0][0].ok || firstRxs[0][0].frame != "reply" {
		t.Fatalf("query sender receptions: %+v, want clean reply", firstRxs[0])
	}
	if len(firstRxs[2]) != 2 || firstRxs[2][0].ok || firstRxs[2][1].ok {
		t.Fatalf("bystander receptions: %+v, want corrupted query then corrupted reply", firstRxs[2])
	}
}

// TestMatrixUnicastReachesOnlyAddressee pins the addressing contract
// under every model × index combination: a unicast's handler runs at
// its addressee only, while every in-range bystander still receives it
// — counted in its counters and the medium's, and a collision at the
// addressee still corrupts the addressee's copy.
func TestMatrixUnicastReachesOnlyAddressee(t *testing.T) {
	// Range 60: nodes 2, 3 and 4 hear node 1; node 5 hears node 2 only.
	positions := []geom.Point{{X: 0}, {X: 50}, {X: 40}, {X: -40}, {X: 110}}
	var worlds [][]*testNode
	rxs, stats := runMatrix(t, 60, positions, func(sched *sim.Scheduler, nodes []*testNode) {
		worlds = append(worlds, nodes)
		// A clean unicast to 2.
		sched.After(0, func() { _ = nodes[0].startTxTo("u1", testAirtime, 2) })
		// A unicast to 2 that node 5, hidden from node 1, collides with
		// at 2 alone.
		sched.After(time.Millisecond, func() { _ = nodes[0].startTxTo("u2", testAirtime, 2) })
		sched.After(time.Millisecond+testAirtime/4, func() { _ = nodes[4].startTx("b", testAirtime) })
		// A unicast to a node out of range: nobody's handler runs.
		sched.After(2*time.Millisecond, func() { _ = nodes[0].startTxTo("u3", testAirtime, 5) })
	})
	want := []rxRecord{
		{frame: "u1", from: 1, ok: true, at: testAirtime},
		{frame: "u2", from: 1, ok: false, at: time.Millisecond + testAirtime},
		{frame: "b", from: 5, ok: false, at: time.Millisecond + testAirtime/4 + testAirtime},
	}
	if !reflect.DeepEqual(rxs[1], want) {
		t.Fatalf("addressee's handler got %+v, want %+v", rxs[1], want)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if len(rxs[i]) != 0 {
			t.Fatalf("node %d's handler got %+v, want nothing: it is addressed by no unicast it hears", i+1, rxs[i])
		}
	}
	// u1 and u3 reach 2, 3 and 4 intact, u2 reaches 3 and 4 intact; u2
	// and b collide at 2.
	if stats.Deliveries != 8 || stats.Collisions != 2 {
		t.Fatalf("stats = %+v, want 8 deliveries and 2 collisions", stats)
	}
	wantCounters := [][3]uint64{{3, 0, 0}, {0, 2, 2}, {0, 3, 0}, {0, 3, 0}, {1, 0, 0}}
	for _, nodes := range worlds {
		for i, n := range nodes {
			sent, delivered, collided := n.tr.Counters()
			if got := [3]uint64{sent, delivered, collided}; got != wantCounters[i] {
				t.Fatalf("node %d counters (sent, delivered, collided) = %v, want %v", i+1, got, wantCounters[i])
			}
		}
	}
}
