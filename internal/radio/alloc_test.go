package radio

import (
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// nopListener is a carrier listener that keeps to its own state, so the
// allocation tests run the walk's notification branch too.
type nopListener struct{ onsets int }

func (l *nopListener) CarrierOnset(sim.Time, bool) { l.onsets++ }

type nopDone struct{ n int }

func (d *nopDone) TxDone() { d.n++ }

// row attaches n nodes 5 m apart on the default medium, each declaring
// the speed bound maxSpeed (without moving), counting its receptions
// into rx and listening for carrier.
func row(t *testing.T, sched *sim.Scheduler, n int, maxSpeed float64, rx *int) (*Medium, []*Transceiver) {
	t.Helper()
	m := NewMedium(sched, Params{Range: 75})
	trs := make([]*Transceiver, n)
	for i := range trs {
		trs[i] = attach(t, m, pkt.NodeID(i+1), declared{mobility.Static{P: geom.Point{X: 5 * float64(i)}}, maxSpeed},
			func(any, pkt.NodeID, bool) { *rx++ })
		trs[i].SetCarrierListener(&nopListener{})
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
		cycle()
		rx, done.n = 0, 0
		const runs = 200
		if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
			t.Errorf("max speed %v: StartTx → finish cycle allocates %v times, want 0", maxSpeed, allocs)
		}
		// AllocsPerRun makes one warm-up call of its own.
		if want := (runs + 1) * 9; rx != want || done.n != runs+1 {
			t.Fatalf("max speed %v: %d receptions and %d TxDone calls, want %d and %d", maxSpeed, rx, done.n, want, runs+1)
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

// TestCarrierProbeAllocatesNothing: the probe's accumulators live in
// the transceiver and its visitor is bound at attach, on the index's
// linear-scan path and — with more than txScanThreshold frames on the
// air — its grid path.
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
		if busy != testAirtime || reach != testAirtime {
			t.Fatalf("%d on air: node %s probes busy %v, reach %v, want %v", onAir, tr.id, busy, reach, testAirtime)
		}
		if allocs := testing.AllocsPerRun(100, func() { tr.CarrierProbe() }); allocs != 0 {
			t.Errorf("%d on air: CarrierProbe allocates %v times, want 0", onAir, allocs)
		}
	}
}

// txListener breaks the CarrierListener contract: it transmits from
// inside its onset notification.
type txListener struct{ tr *Transceiver }

func (l *txListener) CarrierOnset(sim.Time, bool) { _ = l.tr.StartTx(nil, testAirtime) }

// TestStartTxInsideReceiverWalkPanics: the receiver walk keeps its state
// in the medium, which is sound only while no listener starts a
// transmission from inside it; one that does must fail loudly, not
// corrupt the table being built.
func TestStartTxInsideReceiverWalkPanics(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 75})
	a := attach(t, m, 1, mobility.Static{}, nil)
	b := attach(t, m, 2, mobility.Static{P: geom.Point{X: 10}}, nil)
	b.SetCarrierListener(&txListener{tr: b})
	defer func() {
		if recover() == nil {
			t.Fatal("a transmission started inside a receiver walk did not panic")
		}
	}()
	_ = a.StartTx(nil, time.Millisecond)
}
