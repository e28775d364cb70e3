package main

import (
	"fmt"
	"math"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/scenario"
	"anongossip/internal/stack"
)

// The workload names are fixed: later issues refer to them.
const (
	wlPaper = "paper-baseline"
	wlDense = "dense-250"
	wlLarge = "large-1k"
	wlHuge  = "huge-10k"
	wlLive  = "live-chan"
)

// workloadNames lists the workloads in the order they run and are
// reported. BENCHMARK.json, the driver's gate, lists only paper-baseline and
// live-chan: their passes are made of short timed calls the host reference
// can be timed between (hostref.go), so their host times repeat on a shared
// host. A pass of the other three is one or two 12-18 s runs out of the
// last-level cache the host's tenants share: the same binary on the same
// seed read 20-25 % slower over ten minutes and swung between 17 s and 35 s
// within the hour (README.md, "Which workloads the driver gates"), beyond
// any bound the driver's contract allows. They stay in the default run and
// in -compare, which pairs its runs.
var workloadNames = []string{wlPaper, wlDense, wlLarge, wlHuge, wlLive}

var (
	stackAG   = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	stackBare = stack.Spec{Routing: "maodv"}
	stackLive = stack.Spec{Routing: "flood", Recovery: "gossip"}
)

// liveParams is the resolved definition of the live-chan cluster.
type liveParams struct {
	Nodes     int     `json:"nodes"`
	Stack     string  `json:"stack"`
	TimeScale float64 `json:"time_scale"`
	Packets   int     `json:"packets"`
	Window    int     `json:"window"`
	Warmup    int     `json:"warmup_packets"`
	Seed      int64   `json:"seed"`
}

// workload is one resolved benchmark workload: the simulation runs it
// makes (one operation each) or the live cluster it boots.
type workload struct {
	Name string
	Why  string
	// Runs are the scenario.Run calls of one pass, in execution order.
	// Empty for the live workload.
	Runs []scenario.Config
	Live *liveParams
	// Headline makes the pass fail as a whole when the paper's headline
	// bounds (TestPaperHeadlineFullScale) do not hold.
	Headline bool
	// PassSeconds is the nominal host time of one pass on the reference
	// host. Under the driver's contract the pass count is the requested
	// seconds divided by it, so the count depends on the request alone and
	// is the same on every host and commit.
	PassSeconds float64
}

// simRun stamps the stack and seed onto a family configuration. Every
// simulated run measures its live heap so heap_bytes_per_node exists on
// all four workloads; the cost is one forced GC per run, after the
// simulation has finished.
func simRun(c scenario.Config, s stack.Spec, seed int64) scenario.Config {
	c.Protocol = 0
	c.Stack = s
	c.Seed = seed
	c.MeasureHeap = true
	return c
}

// buildWorkload resolves a workload by name for base seed S. quick
// shrinks each workload to well under a second of host time for smoke
// use; the shrunk sizes are recorded in the manifest like the full ones.
func buildWorkload(name string, seed int64, quick bool) (*workload, error) {
	w := &workload{Name: name}
	switch name {
	case wlPaper:
		w.Why = "the paired data point users repeat: 40 nodes, 600 s, AG vs bare MAODV on ten seeds; small pending set, steady-state gossip rounds"
		c := scenario.DefaultConfig()
		seeds := 10
		if quick {
			c = scenario.ShortenedData(c, 60*time.Second)
			seeds = 2
		}
		for _, s := range []stack.Spec{stackAG, stackBare} {
			for i := 0; i < seeds; i++ {
				w.Runs = append(w.Runs, simRun(c, s, seed+int64(i)))
			}
		}
		w.Headline = !quick
		w.PassSeconds = 12
	case wlDense:
		w.Why = "saturated channel at degree 33 with 5 sources: reception walk and contention dominate, the MAC fold is invalidated, AG loses to bare MAODV"
		c := scenario.ShortenedData(scenario.DenseConfig(250, 40), 75*time.Second)
		if quick {
			c = scenario.ShortenedData(scenario.DenseConfig(60, 20), 12*time.Second)
		}
		w.Runs = []scenario.Config{simRun(c, stackAG, seed), simRun(c, stackBare, seed)}
		w.PassSeconds = 16
	case wlLarge:
		w.Why = "sparse constant-density 1000-node field, mostly the join flood: index lookup, AODV neighbour state and the event queue lead; idle channel, the fold pays"
		c := scenario.ShortenedData(scenario.LargeScaleConfig(1000), 20*time.Second)
		if quick {
			c = scenario.ShortenedData(scenario.LargeScaleConfig(150), 6*time.Second)
		}
		w.Runs = []scenario.Config{simRun(c, stackAG, seed)}
		w.PassSeconds = 19
	case wlHuge:
		w.Why = "10000 nodes, 220 MB working set, 1e4..1e5 pending events: per-event cost is 10x the 40-node cost; decides the queue and scheduler bake-off"
		c := scenario.ShortenedData(scenario.HugeScaleConfig(10000), 8300*time.Millisecond)
		if quick {
			c = scenario.ShortenedData(scenario.HugeScaleConfig(1000), 2500*time.Millisecond)
		}
		w.Runs = []scenario.Config{simRun(c, stackAG, seed)}
		w.PassSeconds = 19
	case wlLive:
		w.Why = "8 live nodes on one channel transport, closed loop window 8: the only workload that runs frame encode/decode, the netrt event loop and gossip per-delivery bookkeeping on real goroutines"
		w.Live = &liveParams{
			Nodes: 8, Stack: stackLive.String(), TimeScale: 100,
			Packets: 150000, Window: 8, Warmup: 2000, Seed: seed,
		}
		if quick {
			w.Live.Packets, w.Live.Warmup = 4000, 200
		}
		w.PassSeconds = 6.5
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if quick {
		w.PassSeconds = 1
	}
	return w, nil
}

// operations is the number of operations one pass of the workload
// attempts: one per scenario.Run, or one per expected (packet, receiver)
// delivery on the live cluster.
func (w *workload) operations() int {
	if w.Live != nil {
		return w.Live.Packets * (w.Live.Nodes - 1)
	}
	return len(w.Runs)
}

// driveParams sizes the direct layer drives of the traced pass from the
// workload's own parameters, so a span measures the layer at the table
// sizes and densities the workload puts it under.
type driveParams struct {
	Nodes   int
	Area    geom.Rect
	Range   float64
	Degree  int // expected neighbours per node
	Pending int // event-queue depth held constant by sim.hold
	Speed   float64
	Pause   time.Duration
}

func (w *workload) driveParams() driveParams {
	if w.Live != nil {
		// Every live node hears every other: a single radio cell.
		n := w.Live.Nodes
		return driveParams{Nodes: n, Area: geom.Rect{W: 50, H: 50}, Range: 75, Degree: n - 1, Pending: 8 * n, Speed: 0.2, Pause: 80 * time.Second}
	}
	c := w.Runs[0]
	deg := int(float64(c.Nodes)*math.Pi*c.TxRange*c.TxRange/c.Area.Area() + 0.5)
	if deg > c.Nodes-1 {
		deg = c.Nodes - 1
	}
	if deg < 1 {
		deg = 1
	}
	return driveParams{Nodes: c.Nodes, Area: c.Area, Range: c.TxRange, Degree: deg, Pending: 8 * c.Nodes, Speed: c.MaxSpeed, Pause: c.MaxPause}
}
