package radio

import (
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

type nopDone struct{ n int }

func (d *nopDone) TxDone() { d.n++ }

// row attaches n nodes 5 m apart on the default medium, each declaring
// the speed bound maxSpeed (without moving) and counting its receptions
// into rx.
func row(t *testing.T, sched *sim.Scheduler, n int, maxSpeed float64, rx *int) (*Medium, []*Transceiver) {
	t.Helper()
	m := NewMedium(sched, Params{Range: 75})
	trs := make([]*Transceiver, n)
	for i := range trs {
		trs[i] = attach(t, m, pkt.NodeID(i+1), declared{mobility.Static{P: geom.Point{X: 5 * float64(i)}}, maxSpeed},
			func(any, pkt.NodeID, bool) { *rx++ })
	}
	return m, trs
}

// TestStartTxCycleAllocatesNothing pins the transmission path's budget:
// once the pooled record, its receiver table, the transmitter's
// neighbour table and the kernel's timer pool are warm, putting a frame
// on the air and finishing it at nine receivers allocates nothing — no
// closure per frame, no index entry, no re-made grid cell — and the pool
// never grows past the peak number of frames on the air at once. That
// holds when every cycle walks the one neighbour table (static nodes:
// it never expires) and when every cycle finds it expired and rebuilds
// it in its warmed capacity (nodes declaring 100 m/s: it lives 11.7 ms).
func TestStartTxCycleAllocatesNothing(t *testing.T) {
	for _, maxSpeed := range []float64{0, 100} {
		sched := sim.NewScheduler()
		var rx int
		m, trs := row(t, sched, 10, maxSpeed, &rx)
		var frame any = "frame" // boxed once, like the MAC's *frame
		done := &nopDone{}
		var start sim.Time
		cycle := func() {
			start = sched.Now()
			if err := trs[0].StartTxNotify(frame, testAirtime, pkt.Broadcast, done); err != nil {
				t.Fatal(err)
			}
			sched.Run(start + 20*time.Millisecond)
		}
		// AllocsPerRun(1, …) runs the loop twice, counting the second
		// run exactly: the first is the warm-up.
		const runs = 200
		if allocs := testing.AllocsPerRun(1, func() {
			for range runs {
				cycle()
			}
		}); allocs != 0 {
			t.Errorf("max speed %v: %d StartTx → finish cycles allocate %v times, want 0", maxSpeed, runs, allocs)
		}
		if want := 2 * runs * 9; rx != want || done.n != 2*runs {
			t.Fatalf("max speed %v: %d receptions and %d TxDone calls, want %d and %d", maxSpeed, rx, done.n, want, 2*runs)
		}
		if rebuilt := trs[0].nbrAt == start; rebuilt != (maxSpeed > 0) {
			t.Errorf("max speed %v: last cycle rebuilt the neighbour table: %v", maxSpeed, rebuilt)
		}
		if m.txMade != 1 || len(m.index.(*gridIndex).txByID) != 1 {
			t.Errorf("%d transmission records made, index keyed up to %d, want 1 and 1: ids must stay bounded by peak concurrency",
				m.txMade, len(m.index.(*gridIndex).txByID))
		}
	}
}

// TestCarrierProbeAllocatesNothing: CarrierBusyUntil's accumulator
// lives in the transceiver and its visitor is bound at attach, on the
// index's linear-scan path and — with more than txScanThreshold frames
// on the air — its grid path. CarrierProbe answers the same instant
// twice.
func TestCarrierProbeAllocatesNothing(t *testing.T) {
	for _, onAir := range []int{1, txScanThreshold + 8} {
		sched := sim.NewScheduler()
		var rx int
		m, trs := row(t, sched, onAir, 0, &rx)
		tr := attach(t, m, 1000, mobility.Static{P: geom.Point{Y: 10}}, nil)
		for _, tx := range trs {
			if err := tx.StartTx(nil, testAirtime); err != nil {
				t.Fatal(err)
			}
		}
		busy, reach := tr.CarrierProbe()
		if until := tr.CarrierBusyUntil(); until != testAirtime || busy != until || reach != until {
			t.Fatalf("%d on air: node %s senses busy until %v and probes (%v, %v), want %v", onAir, tr.id, until, busy, reach, testAirtime)
		}
		const runs = 100
		if allocs := testing.AllocsPerRun(1, func() {
			for range runs {
				tr.CarrierBusyUntil()
			}
		}); allocs != 0 {
			t.Errorf("%d on air: %d carrier reads allocate %v times, want 0", onAir, runs, allocs)
		}
	}
}
