// Package mobility implements node movement models. The paper's evaluation
// uses the Random Waypoint model: each node repeatedly picks a uniformly
// random destination in the terrain, travels to it in a straight line at a
// speed drawn uniformly from [0, MaxSpeed], then rests for a pause
// drawn uniformly from [0, MaxPause] (80 s in the paper) before repeating.
//
// Trajectories are generated lazily and deterministically from a sim.RNG
// sub-stream. Positions are read at the simulation clock, which never
// runs backwards, so a Waypoint keeps only the leg that covers the last
// query and draws the following legs as the clock passes them.
package mobility

import (
	"fmt"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/sim"
)

// Model yields a node's position at the simulation clock, and bounds how
// fast it moves. Callers read positions at the clock, so t never
// decreases between calls; an implementation may panic if it does
// (Static answers any t). Implementations must be deterministic:
// repeated calls with the same t return the same point.
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

// Waypoint is a lazily-generated Random Waypoint trajectory. It holds
// the leg that covers the last query; a later query past that leg's end
// draws the following legs in order.
type Waypoint struct {
	cfg WaypointConfig
	rng *sim.RNG
	cur leg
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
	w.cur = w.nextLeg(0, start)
	return w
}

func randomPoint(r geom.Rect, rng *sim.RNG) geom.Point {
	return geom.Point{X: rng.Uniform(0, r.W), Y: rng.Uniform(0, r.H)}
}

func (w *Waypoint) nextLeg(start sim.Time, from geom.Point) leg {
	if w.cfg.MaxSpeed <= 0 {
		// Degenerate configuration: the node is effectively static. Emit a
		// very long pause leg; another follows if the horizon is exceeded.
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

// Position implements Model. A negative t reads as 0; a t before the
// current leg's start panics, since the leg before it is gone.
func (w *Waypoint) Position(t sim.Time) geom.Point {
	t = max(t, 0)
	if t < w.cur.start {
		panic(fmt.Sprintf("mobility: Waypoint queried at %v, before its current leg's start %v", t, w.cur.start))
	}
	for w.cur.end() <= t {
		w.cur = w.nextLeg(w.cur.end(), w.cur.to)
	}
	return w.cur.positionAt(t)
}

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
