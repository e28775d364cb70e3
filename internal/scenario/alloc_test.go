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
// slice per frame, 0.21 without them, 0.088 once timer callbacks, MAC
// records and walk scratch were reused, and 0.022 (0.0224 under the
// race detector) once every packet a node sends was built in one its
// link had handed back: rows §R, §Y and §Z of EXPERIMENTS.md's
// allocation ledger. The budget is that plus 10 %.
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
	const budget = 0.025
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
	t.Logf("%d mallocs over %d events = %.3f per event", after.Mallocs-before.Mallocs, res.Events, perEvent)
	if perEvent > budget {
		t.Errorf("%.4f heap allocations per event, budget %.3f: something on the per-frame path allocates again", perEvent, budget)
	}
}
