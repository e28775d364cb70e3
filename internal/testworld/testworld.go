// Package testworld builds the simulated world the protocol suites run
// on: nodes over one sim.Scheduler and one radio.Medium, each attached
// through the real mac.DCF, which is the runtime a test puts its
// node.Stack on. It imports nothing above the MAC, so node's own tests
// can use it as well as the routing and gossip tests above them. Only
// _test.go files import it.
package testworld

import (
	"fmt"
	"testing"

	"anongossip/internal/geom"
	"anongossip/internal/mac"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// World is the scheduler, the medium and every node's MAC.
type World struct {
	Sched  *sim.Scheduler
	Medium *radio.Medium
	MACs   []*mac.DCF
}

// New builds one node per model over a medium of range rangeM metres.
// Node i has ID i+1 and moves by models[i]; its MAC draws from
// stream(ID).Derive("mac/<ID>"), so each suite keeps its own node
// labels (Labelled) under the MAC stream the scenario derives.
func New(t testing.TB, rangeM float64, models []mobility.Model, stream func(id pkt.NodeID) *sim.RNG) *World {
	t.Helper()
	sched := sim.NewScheduler()
	w := &World{Sched: sched, Medium: radio.NewMedium(sched, radio.Params{Range: rangeM})}
	for i, m := range models {
		id := pkt.NodeID(i + 1)
		w.Add(t, id, m, stream(id).Derive(fmt.Sprintf("mac/%d", id)))
	}
	return w
}

// Add attaches one more node, whose MAC draws from rng as given, and
// appends its MAC to MACs.
func (w *World) Add(t testing.TB, id pkt.NodeID, m mobility.Model, rng *sim.RNG) *mac.DCF {
	t.Helper()
	d, err := mac.New(w.Sched, rng, w.Medium, id, m, mac.DefaultConfig(), mac.Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	w.MACs = append(w.MACs, d)
	return d
}

// Settle runs window, a stretch of a world's steady state, until a run
// of it allocates nothing, and fails the test if maxRuns runs all
// allocate. Each run calls window twice and counts the second call,
// whose results the test then checks: it is the measured window.
//
// A world's pools (the scheduler's slots and queue, the radio's
// records, the MACs' queues, each stack's spares) grow at new
// high-water marks, which rare coincidences set: on a three-node line
// all three nodes on the air at once, or one MAC queue a frame deeper
// than ever, as late as two hours in on some draws of the streams. So
// no fixed warm-up, and no run of quiet windows, makes the window after
// it allocation-free on every draw, but a window that allocates nothing
// is one in which no pool grew. Allocation on the steady path itself,
// once per frame or per tick, leaves no window quiet and fails here.
func Settle(t testing.TB, maxRuns int, window func()) {
	t.Helper()
	var allocs float64
	for range maxRuns {
		if allocs = testing.AllocsPerRun(1, window); allocs == 0 {
			return
		}
	}
	t.Fatalf("%d runs of the window all allocate (the last %v times), want one that allocates nothing", maxRuns, allocs)
}

// Labelled is the node stream rng.Derive(prefix + id.String()).
func Labelled(rng *sim.RNG, prefix string) func(id pkt.NodeID) *sim.RNG {
	return func(id pkt.NodeID) *sim.RNG { return rng.Derive(prefix + id.String()) }
}

// Line returns n points gap metres apart along the x axis from the
// origin.
func Line(n int, gap float64) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: float64(i) * gap}
	}
	return out
}

// Static places one motionless node at each point.
func Static(ps ...geom.Point) []mobility.Model {
	out := make([]mobility.Model, len(ps))
	for i, p := range ps {
		out[i] = mobility.Static{P: p}
	}
	return out
}

// Speed is a Leg's declared and actual speed: a node leaves a 60 m
// neighbourhood within a tenth of a second and ends a 1 km leg within
// about a second.
const Speed = 1000 // m/s

// Leg is a mobility model that stays at From until At, then travels in
// a straight line to To at Speed and stays there.
type Leg struct {
	From, To geom.Point
	At       sim.Time
}

// Position implements mobility.Model.
func (l *Leg) Position(t sim.Time) geom.Point {
	if t <= l.At || l.From == l.To {
		return l.From
	}
	frac := Speed * (t - l.At).Seconds() / l.From.Dist(l.To)
	if frac >= 1 {
		return l.To
	}
	return l.From.Lerp(l.To, frac)
}

// MaxSpeed implements mobility.Model.
func (*Leg) MaxSpeed() float64 { return Speed }

// MoveTo starts a new leg at now, from wherever the node then is, to to.
func (l *Leg) MoveTo(now sim.Time, to geom.Point) {
	*l = Leg{From: l.Position(now), To: to, At: now}
}
