package scenario

import (
	"runtime"
	"testing"
	"time"

	"anongossip/internal/stack"
)

// TestAllocationBudgetPerEvent holds a whole paper-shaped run to a heap
// allocation budget per logical event. It is a count, not a timing, so
// it repeats exactly from host to host and can gate where throughput
// cannot. This run cost 0.48 per event while the mac → radio → geom
// path still made a closure, a boxed frame, a map entry and a re-made
// slice per frame, and costs 0.21 without them (EXPERIMENTS.md §R):
// the protocols' own packets and the MAC's one outgoing record per
// frame.
func TestAllocationBudgetPerEvent(t *testing.T) {
	cfg := ShortenedData(DefaultConfig(), 60*time.Second)
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
	const budget = 0.25
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
	t.Logf("%d mallocs over %d events = %.3f per event", after.Mallocs-before.Mallocs, res.Events, perEvent)
	if perEvent > budget {
		t.Errorf("%.3f heap allocations per event, budget %.2f: something on the per-frame path allocates again", perEvent, budget)
	}
}
