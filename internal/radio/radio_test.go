package radio

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

const testAirtime = 500 * time.Microsecond

type rxRecord struct {
	frame any
	from  pkt.NodeID
	ok    bool
	at    sim.Time
}

type testNode struct {
	tr  *Transceiver
	rxs []rxRecord
	// tm is set by the oracle-matrix tests (collision_test.go), whose
	// scripts transmit through startTx.
	tm *testMedium
}

func (n *testNode) startTx(frame any, airtime sim.Time) error {
	return n.startTxTo(frame, airtime, pkt.Broadcast)
}

// startTxTo is startTx addressed to dst.
func (n *testNode) startTxTo(frame any, airtime sim.Time, dst pkt.NodeID) error {
	return n.tm.startTx(n.tr, frame, airtime, dst, nil)
}

// build attaches nodes at fixed positions and records every reception.
func build(sched *sim.Scheduler, m *Medium, positions []geom.Point) []*testNode {
	nodes := make([]*testNode, len(positions))
	for i, p := range positions {
		n := &testNode{}
		id := pkt.NodeID(i + 1)
		tr, err := m.Attach(id, mobility.Static{P: p}, func(frame any, from pkt.NodeID, ok bool) {
			n.rxs = append(n.rxs, rxRecord{frame: frame, from: from, ok: ok, at: sched.Now()})
		})
		if err != nil {
			panic(err)
		}
		n.tr = tr
		nodes[i] = n
	}
	return nodes
}

// attach is the error-free Attach for tests with unique IDs.
func attach(t testing.TB, m *Medium, id pkt.NodeID, pos mobility.Model, h Handler) *Transceiver {
	t.Helper()
	tr, err := m.Attach(id, pos, h)
	if err != nil {
		t.Fatalf("Attach(%v): %v", id, err)
	}
	return tr
}

// TestNewMediumRejectsBadRange: the range sizes the neighbour grid, so
// a non-positive or non-finite one must fail loudly at construction
// instead of quietly degrading the index.
func TestNewMediumRejectsBadRange(t *testing.T) {
	for _, r := range []float64{0, -75, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "radio:") {
					t.Errorf("Range %v: recovered %q, want a radio: panic", r, msg)
				}
			}()
			NewMedium(sim.NewScheduler(), Params{Range: r})
		}()
	}
}

func TestAttachDuplicateNodeID(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	attach(t, m, 7, mobility.Static{}, nil)
	if _, err := m.Attach(7, mobility.Static{}, nil); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate Attach err = %v, want ErrDuplicateNode", err)
	}
	// The failed attach must not have registered a second transceiver.
	if got := m.NeighborsOf(7); len(got) != 0 {
		t.Fatalf("NeighborsOf(7) after failed duplicate attach = %v, want none", got)
	}
}

// TestAttachRejectsNonFiniteSpeedBound: the grid's refresh interval and
// the neighbour tables' lifetime are computed from the declared speed
// bound, so a NaN, negative or infinite one fails at attach and
// registers nothing.
func TestAttachRejectsNonFiniteSpeedBound(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	for _, spd := range []float64{math.NaN(), -1, math.Inf(1)} {
		if tr, err := m.Attach(7, declared{speed: spd}, nil); err == nil || tr != nil {
			t.Fatalf("Attach with speed bound %v = (%v, %v), want an error", spd, tr, err)
		}
	}
	if len(m.nodes) != 0 || m.maxSpeed != 0 {
		t.Fatalf("failed attaches left %d nodes, max speed %v; want none, 0", len(m.nodes), m.maxSpeed)
	}
	// The ID stays free, and the boundary bound 0 is accepted.
	attach(t, m, 7, declared{speed: 0}, nil)
}

func TestDeliveryWithinRange(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 200, Y: 0}})

	sched.After(0, func() {
		if err := nodes[0].tr.StartTx("hello", testAirtime); err != nil {
			t.Errorf("StartTx: %v", err)
		}
	})
	sched.Run(time.Second)

	if len(nodes[1].rxs) != 1 {
		t.Fatalf("in-range node got %d receptions, want 1", len(nodes[1].rxs))
	}
	rx := nodes[1].rxs[0]
	if !rx.ok || rx.frame != "hello" || rx.from != 1 {
		t.Fatalf("bad reception: %+v", rx)
	}
	if rx.at != testAirtime {
		t.Fatalf("delivered at %v, want %v", rx.at, testAirtime)
	}
	if len(nodes[2].rxs) != 0 {
		t.Fatalf("out-of-range node received %d frames, want 0", len(nodes[2].rxs))
	}
	if len(nodes[0].rxs) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestOverlappingTransmissionsCollide(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 60})
	// 1 and 3 are both in range of 2 but not of each other, so exactly two
	// receptions (both at node 2) exist and both must collide.
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}})

	sched.After(0, func() { _ = nodes[0].tr.StartTx("a", testAirtime) })
	sched.After(testAirtime/2, func() { _ = nodes[2].tr.StartTx("b", testAirtime) })
	sched.Run(time.Second)

	if len(nodes[1].rxs) != 2 {
		t.Fatalf("middle node got %d receptions, want 2", len(nodes[1].rxs))
	}
	for _, rx := range nodes[1].rxs {
		if rx.ok {
			t.Fatalf("overlapping reception delivered intact: %+v", rx)
		}
	}
	if s := m.Stats(); s.Collisions != 2 {
		t.Fatalf("stats.Collisions = %d, want 2", s.Collisions)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 60})
	// 1 and 3 are 120 m apart (cannot hear each other); 2 in the middle
	// hears both.
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}})

	sched.After(0, func() { _ = nodes[0].tr.StartTx("a", testAirtime) })
	sched.After(testAirtime/4, func() { _ = nodes[2].tr.StartTx("b", testAirtime) })
	sched.Run(time.Second)

	for _, rx := range nodes[1].rxs {
		if rx.ok {
			t.Fatalf("hidden-terminal overlap delivered intact: %+v", rx)
		}
	}
	if len(nodes[1].rxs) != 2 {
		t.Fatalf("middle node got %d receptions, want 2", len(nodes[1].rxs))
	}
}

func TestNonOverlappingSequentialDeliveries(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})

	sched.After(0, func() { _ = nodes[0].tr.StartTx("a", testAirtime) })
	sched.After(2*testAirtime, func() { _ = nodes[0].tr.StartTx("b", testAirtime) })
	sched.Run(time.Second)

	if len(nodes[1].rxs) != 2 {
		t.Fatalf("got %d receptions, want 2", len(nodes[1].rxs))
	}
	for _, rx := range nodes[1].rxs {
		if !rx.ok {
			t.Fatalf("sequential transmission corrupted: %+v", rx)
		}
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})

	// Node 2 transmits; node 1 transmits while node 2 is still on air.
	sched.After(0, func() { _ = nodes[1].tr.StartTx("mine", testAirtime) })
	sched.After(testAirtime/2, func() { _ = nodes[0].tr.StartTx("other", testAirtime) })
	sched.Run(time.Second)

	// Node 2 must not successfully receive "other".
	for _, rx := range nodes[1].rxs {
		if rx.ok {
			t.Fatalf("transmitting node received intact frame: %+v", rx)
		}
	}
	// Node 1 receives "mine" but corrupted: it started transmitting
	// mid-reception.
	if len(nodes[0].rxs) != 1 || nodes[0].rxs[0].ok {
		t.Fatalf("node 1 receptions: %+v, want 1 corrupted", nodes[0].rxs)
	}
}

func TestStartTxWhileTransmittingFails(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}})

	var second error
	sched.After(0, func() {
		if err := nodes[0].tr.StartTx("a", testAirtime); err != nil {
			t.Errorf("first StartTx: %v", err)
		}
		second = nodes[0].tr.StartTx("b", testAirtime)
	})
	sched.Run(time.Second)
	if !errors.Is(second, ErrAlreadyTransmitting) {
		t.Fatalf("second StartTx err = %v, want ErrAlreadyTransmitting", second)
	}
}

func TestStartTxBadAirtime(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}})
	if err := nodes[0].tr.StartTx("a", 0); err == nil {
		t.Fatal("StartTx with zero airtime succeeded")
	}
}

func TestCarrierSense(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 500, Y: 0}})

	sched.After(0, func() {
		_ = nodes[0].tr.StartTx("a", testAirtime)
		if got := nodes[1].tr.CarrierBusyUntil(); got != testAirtime {
			t.Errorf("in-range CarrierBusyUntil = %v, want %v", got, testAirtime)
		}
		if got := nodes[2].tr.CarrierBusyUntil(); got != 0 {
			t.Errorf("out-of-range CarrierBusyUntil = %v, want 0", got)
		}
		// The transmitter senses its own transmission.
		if got := nodes[0].tr.CarrierBusyUntil(); got != testAirtime {
			t.Errorf("self CarrierBusyUntil = %v, want %v", got, testAirtime)
		}
	})
	sched.After(2*testAirtime, func() {
		if got := nodes[1].tr.CarrierBusyUntil(); got > sched.Now() {
			t.Errorf("channel still busy after transmission end: %v", got)
		}
	})
	sched.Run(time.Second)
}

func TestTransmitting(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}})

	sched.After(0, func() {
		_ = nodes[0].tr.StartTx("a", testAirtime)
		if !nodes[0].tr.Transmitting() {
			t.Error("Transmitting() = false during transmission")
		}
	})
	sched.After(testAirtime+1, func() {
		if nodes[0].tr.Transmitting() {
			t.Error("Transmitting() = true after transmission end")
		}
	})
	sched.Run(time.Second)
}

func TestMobileNodeRangeEvaluatedAtTxStart(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})

	// A node moving along X at 10 m/s starting at (90, 0): inside range of
	// a transmitter at the origin at t=0, outside at t=5s.
	lin := linearModel{from: geom.Point{X: 90, Y: 0}, vx: 10}
	var got []rxRecord
	tx := attach(t, m, 1, mobility.Static{P: geom.Point{}}, nil)
	attach(t, m, 2, lin, func(frame any, from pkt.NodeID, ok bool) {
		got = append(got, rxRecord{frame: frame, from: from, ok: ok, at: sched.Now()})
	})

	sched.After(0, func() { _ = tx.StartTx("early", testAirtime) })
	sched.After(5*time.Second, func() { _ = tx.StartTx("late", testAirtime) })
	sched.Run(10 * time.Second)

	if len(got) != 1 || got[0].frame != "early" {
		t.Fatalf("mobile receptions = %+v, want only 'early'", got)
	}
}

// linearModel moves at constant velocity for tests.
type linearModel struct {
	from geom.Point
	vx   float64
}

func (l linearModel) Position(t sim.Time) geom.Point {
	return geom.Point{X: l.from.X + l.vx*t.Seconds(), Y: l.from.Y}
}

func (l linearModel) MaxSpeed() float64 { return math.Abs(l.vx) }

func TestNeighborsAndMeanDegree(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 120, Y: 0}})

	got := m.NeighborsOf(2)
	if len(got) != 2 {
		t.Fatalf("NeighborsOf(2) = %v, want both ends", got)
	}
	if got := m.NeighborsOf(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("NeighborsOf(1) = %v, want [2]", got)
	}
	if got := m.NeighborsOf(99); got != nil {
		t.Fatalf("NeighborsOf(unknown) = %v, want nil", got)
	}
	// Links: 1-2 and 2-3 => degree sum 4 over 3 nodes.
	if got, want := m.MeanDegree(), 4.0/3.0; got != want {
		t.Fatalf("MeanDegree = %v, want %v", got, want)
	}
}

func TestPerNodeCounters(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, Params{Range: 100})
	nodes := build(sched, m, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})

	sched.After(0, func() { _ = nodes[0].tr.StartTx("a", testAirtime) })
	sched.Run(time.Second)

	if sent, _, _ := nodes[0].tr.Counters(); sent != 1 {
		t.Fatalf("sender counters sent = %d, want 1", sent)
	}
	if _, delivered, collided := nodes[1].tr.Counters(); delivered != 1 || collided != 0 {
		t.Fatalf("receiver counters = (%d, %d), want (1, 0)", delivered, collided)
	}
}

// rxRecorder is a Receiver that records every call.
type rxRecorder struct {
	sched *sim.Scheduler
	rxs   []rxRecord
}

func (r *rxRecorder) ReceiveFrame(frame any, from pkt.NodeID, ok bool) {
	r.rxs = append(r.rxs, rxRecord{frame: frame, from: from, ok: ok, at: r.sched.Now()})
}

// TestAttachAndAttachReceiverAgree: a node attached with Attach and a
// func Handler and one attached with AttachReceiver see the same
// (frame, from, ok) sequence — hidden-terminal and overlap collisions,
// unicasts to them and past them — and a nil Handler or Receiver takes
// frames without a call.
func TestAttachAndAttachReceiverAgree(t *testing.T) {
	positions := []geom.Point{{X: 0}, {X: 50}, {X: 100}, {X: 150}, {X: 200}}
	run := func(typed bool) [][]rxRecord {
		sched := sim.NewScheduler()
		m := NewMedium(sched, Params{Range: 60})
		trs := make([]*Transceiver, len(positions))
		recs := make([]*rxRecorder, len(positions))
		for i, p := range positions {
			id, pos := pkt.NodeID(i+1), mobility.Static{P: p}
			recs[i] = &rxRecorder{sched: sched}
			var err error
			switch last := i == len(positions)-1; {
			case typed && last:
				trs[i], err = m.AttachReceiver(id, pos, nil)
			case typed:
				trs[i], err = m.AttachReceiver(id, pos, recs[i])
			case last:
				trs[i], err = m.Attach(id, pos, nil)
			default:
				trs[i], err = m.Attach(id, pos, recs[i].ReceiveFrame)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		tx := func(at time.Duration, from int, frame string, dst pkt.NodeID) {
			sched.At(at, func() { _ = trs[from-1].StartTxNotify(frame, testAirtime, dst, nil) })
		}
		tx(0, 1, "a", pkt.Broadcast) // hidden from 3: collides at 2
		tx(100*time.Microsecond, 3, "b", pkt.Broadcast)
		tx(2*time.Millisecond, 2, "c", 3) // overlaps 4's broadcast at 3
		tx(2*time.Millisecond, 4, "d", pkt.Broadcast)
		tx(4*time.Millisecond, 2, "e", pkt.Broadcast)
		tx(6*time.Millisecond, 2, "f", 1) // 3 hears it, only 1 is called
		tx(8*time.Millisecond, 4, "g", 5)
		sched.Run(time.Second)
		out := make([][]rxRecord, len(recs))
		for i, r := range recs {
			out[i] = r.rxs
		}
		return out
	}
	byFunc, byReceiver := run(false), run(true)
	var collided int
	for i := range byFunc {
		if !slices.Equal(byFunc[i], byReceiver[i]) {
			t.Fatalf("node %d: Attach saw %v, AttachReceiver saw %v", i+1, byFunc[i], byReceiver[i])
		}
		for _, r := range byFunc[i] {
			if !r.ok {
				collided++
			}
		}
	}
	if collided < 2 || len(byFunc[0]) == 0 || len(byFunc[len(byFunc)-1]) != 0 {
		t.Fatalf("script lost its point: %d corrupted receptions, records %v", collided, byFunc)
	}
}
