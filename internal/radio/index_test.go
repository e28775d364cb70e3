package radio

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// fuzzWorld is one medium plus logs of everything observable.
type fuzzWorld struct {
	sched *sim.Scheduler
	m     *testMedium
	trs   []*Transceiver
	log   []string
}

// txDoneLog records a transmission's completion hook in the world's
// log, so the hook's schedule position is part of what the oracles
// must agree on.
type txDoneLog struct {
	w    *fuzzWorld
	node int
}

func (d txDoneLog) TxDone() {
	d.w.log = append(d.w.log, fmt.Sprintf("done@%v node=%d", d.w.sched.Now(), d.node))
}

// newFuzzWorld builds n waypoint nodes. The neighbour tables live
// skin/(2·maxSpeed) seconds, so most transmissions walk a table built
// for an earlier one.
func newFuzzWorld(o oracle, seed int64, n int, area geom.Rect, maxSpeed float64) *fuzzWorld {
	w := &fuzzWorld{sched: sim.NewScheduler()}
	w.m = newTestMedium(w.sched, 75, o)
	root := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Area: area, MaxSpeed: maxSpeed, MaxPause: 5 * time.Second,
		}, root.Derive(fmt.Sprintf("mob/%d", i)))
		id := pkt.NodeID(i + 1)
		tr, err := w.m.Attach(id, mob, func(frame any, from pkt.NodeID, ok bool) {
			w.log = append(w.log, fmt.Sprintf("rx@%v node=%d frame=%v from=%d ok=%v", w.sched.Now(), id, frame, from, ok))
		})
		if err != nil {
			panic(err)
		}
		w.trs = append(w.trs, tr)
	}
	return w
}

// fuzzOp is one scheduled action, applied identically to both worlds.
type fuzzOp struct {
	at   sim.Time
	node int
	kind int      // 0 = StartTx, 1 = NeighborsOf, 2 = CarrierBusyUntil, 3 = MeanDegree
	air  sim.Time // StartTx airtime; zero means 2 ms
	to   int      // StartTx addressee, by node index + 1; zero broadcasts
}

func (w *fuzzWorld) schedule(ops []fuzzOp) {
	for i, op := range ops {
		w.sched.At(op.at, func() {
			switch op.kind {
			case 0:
				air := op.air
				if air == 0 {
					air = 2 * time.Millisecond
				}
				dst := pkt.Broadcast
				if op.to > 0 {
					dst = pkt.NodeID(op.to)
				}
				err := w.m.startTx(w.trs[op.node], fmt.Sprintf("f%d", i), air, dst, txDoneLog{w, op.node})
				w.log = append(w.log, fmt.Sprintf("tx@%v node=%d err=%v", w.sched.Now(), op.node, err != nil))
			case 1:
				w.log = append(w.log, fmt.Sprintf("nbr@%v node=%d %v", w.sched.Now(), op.node, w.m.NeighborsOf(pkt.NodeID(op.node+1))))
			case 2:
				w.log = append(w.log, fmt.Sprintf("sense@%v node=%d until=%v", w.sched.Now(), op.node, w.trs[op.node].CarrierBusyUntil()))
			case 3:
				w.log = append(w.log, fmt.Sprintf("deg@%v %v", w.sched.Now(), w.m.MeanDegree()))
			}
		})
	}
}

// TestGridMatchesBruteUnderRandomMobility is the radio-level differential
// fuzz test: the grid and brute-force indexes must produce identical
// neighbour sets, carrier-sense answers, degree metrics, reception
// logs and channel statistics while nodes move randomly —
// including fast movers that cross many grid cells.
func TestGridMatchesBruteUnderRandomMobility(t *testing.T) {
	area := geom.Rect{W: 400, H: 400}
	for _, seed := range []int64{2, 4} {
		opRNG := sim.NewRNG(seed).Derive("ops")
		const nNodes = 50
		var ops []fuzzOp
		for i := 0; i < 3000; i++ {
			ops = append(ops, fuzzOp{
				at:   opRNG.Duration(200 * time.Second),
				node: opRNG.Intn(nNodes),
				kind: opRNG.Intn(4),
			})
		}

		grid := newFuzzWorld(oracle{}, seed, nNodes, area, 10)
		brute := newFuzzWorld(oracle{brute: true}, seed, nNodes, area, 10)
		grid.schedule(ops)
		brute.schedule(ops)
		grid.sched.Run(250 * time.Second)
		brute.sched.Run(250 * time.Second)

		if len(grid.log) != len(brute.log) {
			t.Fatalf("seed %d: log lengths differ: grid %d, brute %d", seed, len(grid.log), len(brute.log))
		}
		for i := range grid.log {
			if grid.log[i] != brute.log[i] {
				t.Fatalf("seed %d: log line %d differs:\ngrid:  %s\nbrute: %s", seed, i, grid.log[i], brute.log[i])
			}
		}
		if gs, bs := grid.m.Stats(), brute.m.Stats(); !reflect.DeepEqual(gs, bs) {
			t.Fatalf("seed %d: stats differ: grid %+v, brute %+v", seed, gs, bs)
		}
		for i := range grid.trs {
			gs, gd, gc := grid.trs[i].Counters()
			bs, bd, bc := brute.trs[i].Counters()
			if gs != bs || gd != bd || gc != bc {
				t.Fatalf("seed %d node %d: counters differ: grid (%d,%d,%d), brute (%d,%d,%d)",
					seed, i, gs, gd, gc, bs, bd, bc)
			}
		}
	}
}

// TestGridMatchesBruteAcrossTxThreshold drives the number of frames on
// the air above txScanThreshold and back below half of it, wave after
// wave, so the grid index fills its transmission grid, answers carrier
// sensing from it, and empties it again mid-run. Every reception and
// carrier-sense answer must match the brute-force scan's.
func TestGridMatchesBruteAcrossTxThreshold(t *testing.T) {
	const nNodes, waves = 120, 6
	area := geom.Rect{W: 1200, H: 1200}
	opRNG := sim.NewRNG(5).Derive("waves")
	var ops []fuzzOp
	for wave := 0; wave < waves; wave++ {
		// 300 long frames start within 40 ms, so the count on the air
		// climbs far past the threshold, and all have ended 90 ms in;
		// 150 carrier probes span the climb and the drain.
		base := sim.Time(wave) * time.Second
		for i := 0; i < 450; i++ {
			op := fuzzOp{at: base + opRNG.Duration(100*time.Millisecond), node: opRNG.Intn(nNodes), kind: 2}
			if i%3 != 0 {
				op.at, op.kind, op.air = base+opRNG.Duration(40*time.Millisecond), 0, 20*time.Millisecond+opRNG.Duration(30*time.Millisecond)
			}
			ops = append(ops, op)
		}
	}
	grid := newFuzzWorld(oracle{}, 5, nNodes, area, 10)
	brute := newFuzzWorld(oracle{brute: true}, 5, nNodes, area, 10)
	grid.schedule(ops)
	brute.schedule(ops)
	// Sample the index at each wave's peak and after it has drained.
	gi := grid.m.index.(*gridIndex)
	var peaks, troughs []bool
	for wave := 0; wave < waves; wave++ {
		base := sim.Time(wave) * time.Second
		grid.sched.At(base+40*time.Millisecond, func() {
			peaks = append(peaks, gi.gridded && len(gi.active) > txScanThreshold && gi.txGrid.Len() == len(gi.active))
		})
		grid.sched.At(base+500*time.Millisecond, func() {
			troughs = append(troughs, !gi.gridded && gi.txGrid.Len() == 0)
		})
	}
	grid.sched.Run(waves * time.Second)
	brute.sched.Run(waves * time.Second)

	for i := range peaks {
		if !peaks[i] || !troughs[i] {
			t.Fatalf("wave %d never crossed the threshold both ways: gridded at peak %v, emptied after %v", i, peaks[i], troughs[i])
		}
	}
	if len(grid.log) != len(brute.log) {
		t.Fatalf("log lengths differ: grid %d, brute %d", len(grid.log), len(brute.log))
	}
	for i := range grid.log {
		if grid.log[i] != brute.log[i] {
			t.Fatalf("log line %d differs:\ngrid:  %s\nbrute: %s", i, grid.log[i], brute.log[i])
		}
	}
	if gs, bs := grid.m.Stats(), brute.m.Stats(); !reflect.DeepEqual(gs, bs) {
		t.Fatalf("stats differ: grid %+v, brute %+v", gs, bs)
	}
}

// TestGridNeighborsMatchBruteStatic pins the simplest invariant: with
// static nodes the two indexes agree on every neighbour query, including
// nodes exactly at range.
func TestGridNeighborsMatchBruteStatic(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 75, Y: 0}, {X: 76, Y: 0}, {X: 0, Y: 74.999}, {X: 300, Y: 300}}
	var mediums []*Medium
	for _, o := range []oracle{{}, {brute: true}} {
		sched := sim.NewScheduler()
		m := newTestMedium(sched, 75, o).Medium
		for i, p := range positions {
			attach(t, m, pkt.NodeID(i+1), mobility.Static{P: p}, nil)
		}
		mediums = append(mediums, m)
	}
	for i := range positions {
		id := pkt.NodeID(i + 1)
		g, b := mediums[0].NeighborsOf(id), mediums[1].NeighborsOf(id)
		if !reflect.DeepEqual(g, b) {
			t.Fatalf("node %d: grid %v, brute %v", id, g, b)
		}
	}
	if g, b := mediums[0].MeanDegree(), mediums[1].MeanDegree(); g != b {
		t.Fatalf("MeanDegree: grid %v, brute %v", g, b)
	}
}

// benchMedium builds n uniformly placed slow waypoint nodes on a field
// sized for constant density (the large-scale family's regime).
func benchMedium(b *testing.B, n int) (*sim.Scheduler, []*Transceiver) {
	b.Helper()
	side := 200 * math.Sqrt(float64(n)/40) // density-preserving: side² ∝ n
	area := geom.Rect{W: side, H: side}
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 75})
	root := sim.NewRNG(7)
	trs := make([]*Transceiver, n)
	for i := 0; i < n; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Area: area, MaxSpeed: 0.2, MaxPause: 80 * time.Second,
		}, root.Derive(fmt.Sprintf("mob/%d", i)))
		trs[i] = attach(b, m, pkt.NodeID(i+1), mob, nil)
	}
	return sched, trs
}

// benchStartTx measures the radio hot path in isolation: repeated
// transmissions from rotating nodes, each scheduling receptions for its
// in-range neighbours, plus the carrier sensing the MAC would do.
func benchStartTx(b *testing.B, n int) {
	sched, trs := benchMedium(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trs[i%n]
		_ = tr.CarrierBusyUntil()
		_ = tr.StartTx(i, 100*time.Microsecond)
		if i%16 == 15 {
			sched.Run(sched.Now() + time.Millisecond)
		}
	}
	sched.Run(sched.Now() + time.Second)
}

func BenchmarkStartTx250Grid(b *testing.B)  { benchStartTx(b, 250) }
func BenchmarkStartTx1000Grid(b *testing.B) { benchStartTx(b, 1000) }

func benchNeighbors(b *testing.B, n int) {
	_, trs := benchMedium(b, n)
	m := trs[0].medium
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NeighborsOf(pkt.NodeID(i%n + 1))
	}
}

func BenchmarkNeighborsOf250Grid(b *testing.B)  { benchNeighbors(b, 250) }
func BenchmarkNeighborsOf1000Grid(b *testing.B) { benchNeighbors(b, 1000) }
