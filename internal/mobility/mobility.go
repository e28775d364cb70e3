// Package mobility implements node movement models. The paper's evaluation
// uses the Random Waypoint model: each node repeatedly picks a uniformly
// random destination in the terrain, travels to it in a straight line at a
// speed drawn uniformly from [0, MaxSpeed], then rests for a pause
// drawn uniformly from [0, MaxPause] (80 s in the paper) before repeating.
//
// Trajectories are generated lazily and deterministically from a sim.RNG
// sub-stream, so a node's position is computable at any simulation time
// without stepping the model.
package mobility

import (
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/sim"
)

// Model yields a node's position at any simulation time, and bounds how
// fast it moves. Implementations must be deterministic: repeated calls
// with the same t return the same point, and queries at earlier times
// after later ones are allowed.
type Model interface {
	Position(t sim.Time) geom.Point
	// MaxSpeed returns a conservative upper bound in m/s on the node's
	// speed at any simulation time; 0 means the node never moves. It
	// must be finite and non-negative (radio.Medium.Attach rejects
	// anything else). The radio layer's spatial grid uses the bound to
	// decide how long a bucketed position stays valid (a node cannot
	// drift more than MaxSpeed·Δt metres from where it was last
	// bucketed) and its per-transmitter neighbour tables to certify
	// receivers without re-reading their positions, so returning a
	// value that the trajectory can exceed breaks neighbour queries and
	// receptions. The one stated excess: Waypoint truncates a leg's
	// travel time to whole nanoseconds, so a leg runs up to 1/travel_ns
	// faster than its drawn speed and is, by its end, less than
	// MaxSpeed × 1 ns (10 nm at 10 m/s) ahead of the bound; the tables'
	// absolute margin (1 µm, radio.Medium.skinOut) covers a hundred
	// such legs within one table's lifetime, the grid's slack far more.
	MaxSpeed() float64
}

// Static is a node that never moves.
type Static struct {
	P geom.Point
}

// Position implements Model.
func (s Static) Position(sim.Time) geom.Point { return s.P }

// MaxSpeed implements Model: a static node never moves.
func (s Static) MaxSpeed() float64 { return 0 }

// WaypointConfig parameterises the Random Waypoint model.
type WaypointConfig struct {
	// Area is the terrain; destinations are drawn uniformly inside it.
	Area geom.Rect
	// MaxSpeed bounds the per-leg speed in m/s: each leg's speed is drawn
	// uniformly from [0, MaxSpeed], as in the paper, and speeds below
	// floorSpeed are raised to floorSpeed so that every leg terminates.
	MaxSpeed float64
	// MaxPause bounds the uniform rest period at each destination.
	MaxPause time.Duration
}

// floorSpeed prevents zero-speed legs that would never arrive. 1 cm/s is
// far below any speed the experiments sweep (0.1 .. 10 m/s).
const floorSpeed = 0.01

// leg is one travel-then-pause segment of a waypoint trajectory, covering
// simulation times [start, start+travel+pause).
type leg struct {
	start    sim.Time
	from, to geom.Point
	travel   sim.Time
	pause    sim.Time
}

func (l leg) end() sim.Time { return l.start + l.travel + l.pause }

// positionAt interpolates within the leg. t must satisfy start <= t < end.
func (l leg) positionAt(t sim.Time) geom.Point {
	if t >= l.start+l.travel {
		return l.to
	}
	if l.travel == 0 {
		return l.to
	}
	frac := float64(t-l.start) / float64(l.travel)
	return l.from.Lerp(l.to, frac)
}

// Waypoint is a lazily-generated Random Waypoint trajectory.
type Waypoint struct {
	cfg  WaypointConfig
	rng  *sim.RNG
	legs []leg
	// Position memo: queries cluster tightly around the advancing
	// simulation clock (a carrier probe reads every candidate's
	// position at the same instant, and consecutive events sit
	// microseconds apart), so the last result answers repeats verbatim,
	// a later query inside the last covering leg interpolates its copy
	// memoL (ending at memoEnd) without reading legs, and any other
	// query seeds its search with that leg's index.
	memoT   sim.Time
	memoP   geom.Point
	memoLeg int
	memoL   leg
	memoEnd sim.Time
	memoOK  bool
}

var (
	_ Model = (*Waypoint)(nil)
	_ Model = Static{}
)

// NewWaypoint creates a trajectory starting at a uniformly random point in
// the configured area. rng must be a dedicated sub-stream: the model
// consumes from it as legs are generated.
func NewWaypoint(cfg WaypointConfig, rng *sim.RNG) *Waypoint {
	start := randomPoint(cfg.Area, rng)
	return NewWaypointAt(cfg, rng, start)
}

// NewWaypointAt creates a trajectory with a fixed starting position.
func NewWaypointAt(cfg WaypointConfig, rng *sim.RNG, start geom.Point) *Waypoint {
	w := &Waypoint{cfg: cfg, rng: rng}
	w.legs = append(w.legs, w.nextLeg(0, start))
	return w
}

func randomPoint(r geom.Rect, rng *sim.RNG) geom.Point {
	return geom.Point{X: rng.Uniform(0, r.W), Y: rng.Uniform(0, r.H)}
}

func (w *Waypoint) nextLeg(start sim.Time, from geom.Point) leg {
	if w.cfg.MaxSpeed <= 0 {
		// Degenerate configuration: the node is effectively static. Emit a
		// very long pause leg; more are appended if the horizon is exceeded.
		return leg{start: start, from: from, to: from, travel: 0, pause: 1 << 50}
	}
	to := randomPoint(w.cfg.Area, w.rng)
	speed := w.rng.Uniform(0, w.cfg.MaxSpeed)
	if speed < floorSpeed {
		speed = floorSpeed
	}
	dist := from.Dist(to)
	travel := sim.Time(float64(time.Second) * dist / speed)
	pause := w.rng.Duration(w.cfg.MaxPause)
	return leg{start: start, from: from, to: to, travel: travel, pause: pause}
}

// extendTo appends legs until the trajectory covers time t.
func (w *Waypoint) extendTo(t sim.Time) {
	last := w.legs[len(w.legs)-1]
	for last.end() <= t {
		last = w.nextLeg(last.end(), last.to)
		w.legs = append(w.legs, last)
	}
}

// Position implements Model.
func (w *Waypoint) Position(t sim.Time) geom.Point {
	if t < 0 {
		t = 0
	}
	if w.memoOK && t >= w.memoT {
		if t == w.memoT {
			return w.memoP
		}
		if t < w.memoEnd {
			w.memoT, w.memoP = t, w.memoL.positionAt(t)
			return w.memoP
		}
	}
	w.extendTo(t)
	// Binary search for the covering leg, seeded from the memoised leg:
	// the covering leg for a nearby query is almost always the same leg
	// or its successor.
	lo, hi := 0, len(w.legs)-1
	if w.memoOK {
		if l := w.legs[w.memoLeg]; l.start <= t {
			if t < l.end() {
				lo, hi = w.memoLeg, w.memoLeg
			} else {
				lo = w.memoLeg + 1
			}
		} else {
			hi = w.memoLeg
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if w.legs[mid].end() <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.memoL = w.legs[lo]
	w.memoT, w.memoP, w.memoLeg, w.memoEnd, w.memoOK = t, w.memoL.positionAt(t), lo, w.memoL.end(), true
	return w.memoP
}

// Legs returns the number of trajectory segments generated so far. It is
// exported for tests and diagnostics.
func (w *Waypoint) Legs() int { return len(w.legs) }

// MaxSpeed implements Model. Per-leg speeds are drawn from
// [0, MaxSpeed] and raised to floorSpeed when below it, so the
// conservative bound is the larger of the two. A non-positive
// configured MaxSpeed degenerates to an eternally pausing (static)
// trajectory.
func (w *Waypoint) MaxSpeed() float64 {
	if w.cfg.MaxSpeed <= 0 {
		return 0
	}
	return max(w.cfg.MaxSpeed, floorSpeed)
}
