package scenario

import (
	"runtime"
	"testing"
	"time"

	"anongossip/internal/stack"
)

// TestAllocationBudgetPerEvent holds a paper-shaped maodv+gossip run to
// two heap allocation budgets. They are counts, not timings, so they
// repeat exactly from host to host and can gate where throughput
// cannot.
//
// Set-up: a 60 s run allocates at most 6,553 objects, almost all of
// them building the world and warming its pools. It reads 6,345 (6,415
// under the race detector). The budget was 6,761, the old single budget
// of 0.025 mallocs per logical event at the run's then 270,442 events,
// and fell by the 208 allocations the run saved when sim.RNG's
// math/rand source (two objects per stream drawn from) became one
// PCG held in the stream. Divided by events, it read 0.48 while the
// mac → radio → geom path still made a closure, a boxed frame, a map
// entry and a re-made slice per frame, 0.21 without them, 0.088 once timer callbacks, MAC
// records and walk scratch were reused, and 0.022 once every packet a
// node sends was built in one its link had handed back: rows §R, §Y and
// §Z of EXPERIMENTS.md's allocation ledger. An absolute count does not
// fail a change that only cuts events.
//
// Steady state: the 60 s that a 120 s run adds cost at most 0.002
// mallocs per event each (0.0007–0.0014 on seeds 1–3). Anything on the
// per-frame path that allocates again shows here first.
func TestAllocationBudgetPerEvent(t *testing.T) {
	run := func(d time.Duration) (mallocs, events uint64) {
		cfg := ShortenedData(DefaultConfig(), d)
		cfg.Stack = stack.Spec{Routing: "maodv", Recovery: "gossip"}
		cfg.Seed = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events == 0 {
			t.Fatal("run executed no events")
		}
		return after.Mallocs - before.Mallocs, res.Events
	}
	const (
		setupBudget  = 6553
		steadyBudget = 0.002
	)
	m60, e60 := run(60 * time.Second)
	m120, e120 := run(120 * time.Second)
	steady := (float64(m120) - float64(m60)) / float64(e120-e60)
	t.Logf("60 s: %d mallocs over %d events; 120 s: %d over %d; steady state %.5f per event", m60, e60, m120, e120, steady)
	if m60 > setupBudget {
		t.Errorf("a 60 s run allocates %d times, budget %d: building or warming the world allocates more", m60, setupBudget)
	}
	if steady > steadyBudget {
		t.Errorf("%.5f heap allocations per steady-state event, budget %.3f: something on the per-frame path allocates again", steady, steadyBudget)
	}
}
