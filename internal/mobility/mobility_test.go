package mobility

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/sim"
)

func testConfig() WaypointConfig {
	return WaypointConfig{
		Area:     geom.Rect{W: 200, H: 200},
		MaxSpeed: 2,
		MaxPause: 80 * time.Second,
	}
}

func TestStatic(t *testing.T) {
	s := Static{P: geom.Point{X: 5, Y: 7}}
	for _, tm := range []sim.Time{0, time.Second, time.Hour} {
		if got := s.Position(tm); got != s.P {
			t.Fatalf("Static.Position(%v) = %v, want %v", tm, got, s.P)
		}
	}
}

func TestWaypointStaysInArea(t *testing.T) {
	cfg := testConfig()
	w := NewWaypoint(cfg, sim.NewRNG(1))
	for ts := sim.Time(0); ts <= 600*time.Second; ts += 500 * time.Millisecond {
		p := w.Position(ts)
		if !cfg.Area.Contains(p) {
			t.Fatalf("position %v at t=%v outside area", p, ts)
		}
	}
}

func TestWaypointDeterministic(t *testing.T) {
	cfg := testConfig()
	a := NewWaypoint(cfg, sim.NewRNG(42))
	b := NewWaypoint(cfg, sim.NewRNG(42))
	for ts := sim.Time(0); ts <= 300*time.Second; ts += 7 * time.Second {
		if a.Position(ts) != b.Position(ts) {
			t.Fatalf("same-seed trajectories diverged at t=%v", ts)
		}
	}
}

// legsUntil walks w forward, leg by leg, and returns every leg it held
// up to the one covering t.
func legsUntil(w *Waypoint, t sim.Time) []leg {
	var legs []leg
	for {
		legs = append(legs, w.cur)
		if w.cur.end() > t {
			return legs
		}
		w.Position(w.cur.end())
	}
}

func TestWaypointSpeedBounded(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSpeed = 2
	w := NewWaypoint(cfg, sim.NewRNG(3))
	const dt = 100 * time.Millisecond
	prev := w.Position(0)
	for ts := dt; ts <= 600*time.Second; ts += dt {
		cur := w.Position(ts)
		dist := prev.Dist(cur)
		speed := dist / dt.Seconds()
		// Allow slack for a leg boundary inside the step (two directions).
		if speed > 2*cfg.MaxSpeed+1e-9 {
			t.Fatalf("apparent speed %.3f m/s at t=%v exceeds bound", speed, ts)
		}
		prev = cur
	}
}

func TestWaypointNegativeTimeClamps(t *testing.T) {
	w := NewWaypoint(testConfig(), sim.NewRNG(5))
	if got, want := w.Position(-time.Second), w.Position(0); got != want {
		t.Fatalf("Position(-1s) = %v, want Position(0) = %v", got, want)
	}
}

func TestWaypointZeroMaxSpeedIsStatic(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSpeed = 0
	w := NewWaypoint(cfg, sim.NewRNG(6))
	p0 := w.Position(0)
	for _, ts := range []sim.Time{time.Second, time.Hour, 100 * time.Hour} {
		if got := w.Position(ts); got != p0 {
			t.Fatalf("zero-speed node moved: %v -> %v", p0, got)
		}
	}
}

func TestWaypointFixedStart(t *testing.T) {
	start := geom.Point{X: 50, Y: 60}
	w := NewWaypointAt(testConfig(), sim.NewRNG(7), start)
	if got := w.Position(0); got != start {
		t.Fatalf("Position(0) = %v, want %v", got, start)
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSpeed = 10
	cfg.MaxPause = time.Second
	w := NewWaypoint(cfg, sim.NewRNG(8))
	p0 := w.Position(0)
	moved := false
	for ts := sim.Time(0); ts <= 120*time.Second; ts += time.Second {
		if w.Position(ts).Dist(p0) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fast node with short pauses never moved more than 1 m in 120 s")
	}
}

// TestWaypointLegsGrowLazily: queries inside the current leg draw
// nothing, and one past its end draws the next leg, which starts where
// and when the current one ends.
func TestWaypointLegsGrowLazily(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSpeed = 10
	cfg.MaxPause = time.Second
	w := NewWaypoint(cfg, sim.NewRNG(10))
	first := w.cur
	w.Position(0)
	w.Position(first.end() - 1)
	if w.cur != first {
		t.Fatal("queries inside the first leg should not draw another")
	}
	w.Position(first.end())
	if w.cur.start != first.end() || w.cur.from != first.to {
		t.Fatalf("the second leg starts at %v from %v; want %v from %v", w.cur.start, w.cur.from, first.end(), first.to)
	}
	w.Position(600 * time.Second)
	if w.cur.end() <= 600*time.Second || w.cur.start > 600*time.Second {
		t.Fatalf("after a query at 10m0s the current leg covers [%v, %v)", w.cur.start, w.cur.end())
	}
}

// TestWaypointBackwardQueryPanics: a query before the current leg's
// start panics, since that leg is gone; one inside the current leg but
// before the last query is still answered.
func TestWaypointBackwardQueryPanics(t *testing.T) {
	w := NewWaypoint(testConfig(), sim.NewRNG(11))
	w.Position(600 * time.Second)
	start := w.cur.start
	if got, want := w.Position(start), NewWaypoint(testConfig(), sim.NewRNG(11)).Position(start); got != want {
		t.Fatalf("Position(%v) = %v inside the current leg, want %v", start, got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Position(%v) before the current leg's start %v did not panic", start-1, start)
		}
	}()
	w.Position(start - 1)
}

// Property: for random seeds and speeds, positions over a long horizon stay
// within the area and repeated queries agree.
func TestWaypointProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64, speedTenths uint8) bool {
		c := cfg
		c.MaxSpeed = float64(speedTenths%100) / 10 // 0 .. 9.9 m/s
		w := NewWaypoint(c, sim.NewRNG(seed))
		for ts := sim.Time(0); ts <= 200*time.Second; ts += 5 * time.Second {
			p := w.Position(ts)
			if !c.Area.Contains(p) {
				return false
			}
			if q := w.Position(ts); q != p {
				return false
			}
			if math.IsNaN(p.X) || math.IsNaN(p.Y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSpeedBounds(t *testing.T) {
	if got := (Static{}).MaxSpeed(); got != 0 {
		t.Fatalf("Static.MaxSpeed = %v, want 0", got)
	}
	w := NewWaypoint(testConfig(), sim.NewRNG(1))
	if got := w.MaxSpeed(); got != 2 {
		t.Fatalf("Waypoint.MaxSpeed = %v, want configured 2", got)
	}
	// Sub-floor configured speeds are raised to floorSpeed per leg, so
	// the bound must report the floor, not the configuration.
	slow := testConfig()
	slow.MaxSpeed = 0.001
	if got := NewWaypoint(slow, sim.NewRNG(1)).MaxSpeed(); got != floorSpeed {
		t.Fatalf("sub-floor MaxSpeed = %v, want floorSpeed %v", got, floorSpeed)
	}
	// A non-positive max speed degenerates to a static trajectory.
	still := testConfig()
	still.MaxSpeed = 0
	if got := NewWaypoint(still, sim.NewRNG(1)).MaxSpeed(); got != 0 {
		t.Fatalf("degenerate MaxSpeed = %v, want 0", got)
	}
}

// TestWaypointRespectsMaxSpeed is the contract the radio grid and the
// neighbour tables depend on: sampled displacement between any two
// instants never exceeds the reported bound times the elapsed time
// (plus float slack and the one-nanosecond leg-truncation excess).
func TestWaypointRespectsMaxSpeed(t *testing.T) {
	f := func(seed int64, speedTenths uint8) bool {
		c := testConfig()
		c.MaxSpeed = float64(speedTenths%100) / 10
		w := NewWaypoint(c, sim.NewRNG(seed))
		bound := w.MaxSpeed()
		const step = 500 * time.Millisecond
		prev := w.Position(0)
		for ts := step; ts <= 120*time.Second; ts += step {
			p := w.Position(ts)
			if dist := p.Dist(prev); dist > bound*step.Seconds()*(1+1e-9)+1e-9 {
				return false
			}
			prev = p
		}
		// Leg boundaries are where the bound is tightest: nextLeg
		// truncates travel to whole nanoseconds, so a leg runs up to
		// 1/travel_ns fast and ends less than bound × 1 ns ahead (the
		// excess the MaxSpeed doc states and radio's tables budget for).
		// Sample 1 ns – 1 µs steps straddling every leg's start, end of
		// travel and end of pause. A model answers rising times only, so
		// a fresh one reads every sample in order first.
		var spans [][2]sim.Time
		var times []sim.Time
		for _, l := range legsUntil(NewWaypoint(c, sim.NewRNG(seed)), 120*time.Second) {
			for _, at := range []sim.Time{l.start, l.start + l.travel, l.end()} {
				for step := time.Nanosecond; step <= time.Microsecond; step *= 10 {
					for _, span := range [][2]sim.Time{{at - step, at}, {at, at + step}, {at - step, at + step}} {
						if span[0] >= 0 {
							spans = append(spans, span)
							times = append(times, span[0], span[1])
						}
					}
				}
			}
		}
		slices.Sort(times)
		pos := make(map[sim.Time]geom.Point, len(times))
		fresh := NewWaypoint(c, sim.NewRNG(seed))
		for _, ts := range times {
			pos[ts] = fresh.Position(ts)
		}
		for _, span := range spans {
			dt := span[1] - span[0]
			if dist := pos[span[0]].Dist(pos[span[1]]); dist > bound*(dt+time.Nanosecond).Seconds()*(1+1e-9)+1e-12 {
				t.Logf("seed %d speed %v: %v m from %v to %v", seed, bound, dist, span[0], span[1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionMemoMatchesFreshModel: one model answering a random
// query sequence at non-decreasing times — rising, with repeats, and
// exactly at its current leg's end and a nanosecond either side —
// returns bit for bit what a fresh model with the same seed returns for
// each query alone, so holding one leg (the model's only memo) changes
// no answer.
func TestPositionMemoMatchesFreshModel(t *testing.T) {
	cfg := WaypointConfig{Area: geom.Rect{W: 50, H: 50}, MaxSpeed: 10, MaxPause: 500 * time.Millisecond}
	model := func(seed int64) *Waypoint { return NewWaypoint(cfg, sim.NewRNG(seed).Derive("mob")) }
	q := rand.New(rand.NewSource(1))
	same := func(a, b geom.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	for seed := int64(1); seed <= 20; seed++ {
		m := model(seed)
		var now sim.Time
		legs := 1
		for i := 0; i < 400; i++ {
			switch k := q.Intn(10); {
			case k < 6:
				now += sim.Time(q.Int63n(int64(500 * time.Millisecond)))
			case k < 7: // repeat the last query
			default:
				now = m.cur.end() + sim.Time(q.Intn(3)-1)
			}
			start := m.cur.start
			if got, want := m.Position(now), model(seed).Position(now); !same(got, want) {
				t.Fatalf("seed %d, query %d at %v: %v, a fresh model says %v", seed, i, now, got, want)
			}
			if m.cur.start != start {
				legs++
			}
		}
		if legs < 5 {
			t.Fatalf("seed %d: the queries covered %d legs; want a sequence crossing many", seed, legs)
		}
	}
}
