package scenario

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/stack"
	"anongossip/internal/stats"
)

// Aggregate summarises one protocol at one sweep point across seeds: the
// union of all member observations (the paper's error bars span the full
// receiver set) plus mean goodput.
type Aggregate struct {
	// Received is the union summary of per-member delivery counts over
	// all seeds.
	Received stats.Summary
	// Goodput is the mean member goodput across seeds.
	Goodput float64
	// Sent is the mean per-run packet count across seeds. Seeds
	// usually agree exactly, but under overload (the dense family)
	// source sends can fail seed-dependently, so the mean — not an
	// arbitrary seed's count — is the DeliveryRatio denominator.
	Sent int
	// Events sums the logical simulation events over all seeds — a
	// workload-size metric for perf tracking, identical across the
	// index, queue and reception-model kinds.
	Events uint64
	// HeapLiveBytes is the largest post-run live heap across seeds
	// (zero unless the runs set Config.MeasureHeap; see the huge-scale
	// family).
	HeapLiveBytes uint64
}

// DeliveryRatio is mean delivery over packets sent, in [0, 1].
func (a Aggregate) DeliveryRatio() float64 {
	if a.Sent == 0 {
		return 0
	}
	return a.Received.Mean / float64(a.Sent)
}

// RunSeeds executes cfg once per seed, in parallel, and returns the
// per-seed results in seed order.
func RunSeeds(cfg Config, seeds []int64, parallel int) ([]*Result, error) {
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, seed := range seeds {
		i, seed := i, seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = seed
			results[i], errs[i] = Run(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// AggregateResults merges per-seed results into one Aggregate.
func AggregateResults(results []*Result) Aggregate {
	var agg Aggregate
	var goodputSum float64
	var sentSum int
	for _, r := range results {
		agg.Received = stats.Merge(agg.Received, r.Received)
		goodputSum += r.MeanGoodput()
		sentSum += r.Sent
		agg.Events += r.Events
		if r.HeapLiveBytes > agg.HeapLiveBytes {
			agg.HeapLiveBytes = r.HeapLiveBytes
		}
	}
	if len(results) > 0 {
		agg.Goodput = goodputSum / float64(len(results))
		agg.Sent = (sentSum + len(results)/2) / len(results)
	}
	return agg
}

// ComparisonRow is one x-axis point of a treatment-versus-baseline
// figure. The field names keep the paper's paired-curve labels: Gossip
// holds the treatment stack's aggregate (the stack with the recovery
// layer), Maodv the baseline's.
type ComparisonRow struct {
	X      float64
	Gossip Aggregate
	Maodv  Aggregate
	// Elapsed is the wall time this point took: both stacks, all seeds
	// (measurement metadata, not a simulation result). Together with
	// the aggregates' Events totals it gives the events/sec perf track
	// agbench -json records across PRs.
	Elapsed time.Duration
}

// RunComparisonStacks sweeps xs, running the treatment and baseline
// stacks at each point with the given seeds. apply customises the base
// config for an x value. progress (optional) receives one line per
// completed point.
func RunComparisonStacks(base Config, xs []float64, apply func(Config, float64) Config,
	seeds []int64, parallel int, progress io.Writer, treatment, baseline stack.Spec) ([]ComparisonRow, error) {
	rows := make([]ComparisonRow, 0, len(xs))
	for _, x := range xs {
		cfg := apply(base, x)
		start := time.Now()

		cfg.Stack = treatment
		tRes, err := RunSeeds(cfg, seeds, parallel)
		if err != nil {
			return nil, fmt.Errorf("%v at x=%v: %w", treatment, x, err)
		}
		cfg.Stack = baseline
		bRes, err := RunSeeds(cfg, seeds, parallel)
		if err != nil {
			return nil, fmt.Errorf("%v at x=%v: %w", baseline, x, err)
		}
		row := ComparisonRow{
			X: x, Gossip: AggregateResults(tRes), Maodv: AggregateResults(bRes),
			Elapsed: time.Since(start),
		}
		rows = append(rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "x=%-7.2f %v %7.1f [%5.0f,%5.0f]   %v %7.1f [%5.0f,%5.0f]\n",
				x, treatment, row.Gossip.Received.Mean, row.Gossip.Received.Min, row.Gossip.Received.Max,
				baseline, row.Maodv.Received.Mean, row.Maodv.Received.Min, row.Maodv.Received.Max)
		}
	}
	return rows, nil
}

// RunComparison sweeps xs with the paper's original pair — MAODV+AG as
// treatment against bare MAODV — mirroring the published curves.
func RunComparison(base Config, xs []float64, apply func(Config, float64) Config,
	seeds []int64, parallel int, progress io.Writer) ([]ComparisonRow, error) {
	return RunComparisonStacks(base, xs, apply, seeds, parallel, progress,
		stack.Spec{Routing: "maodv", Recovery: "gossip"}, stack.Spec{Routing: "maodv"})
}

// --- paper figure definitions (see DESIGN.md experiment index) ---

// Seeds returns the canonical seed list (the paper uses 10 random
// seeds), nil for n <= 0.
func Seeds(n int) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Fig2Xs is the transmission-range sweep 45..85 m in 5 m steps.
func Fig2Xs() []float64 { return rangeXs(45, 85, 5) }

// Fig3Xs equals Fig2Xs (the figures differ in max speed only).
func Fig3Xs() []float64 { return Fig2Xs() }

// Fig4Xs is the low-speed sweep 0.1..1.0 m/s in 0.1 steps.
func Fig4Xs() []float64 { return rangeXs(0.1, 1.0, 0.1) }

// Fig5Xs is the high-speed sweep 1..10 m/s in 1 m/s steps.
func Fig5Xs() []float64 { return rangeXs(1, 10, 1) }

// Fig6Xs and Fig7Xs sweep the node count 40..100.
func Fig6Xs() []float64 { return rangeXs(40, 100, 15) }

// Fig7Xs sweeps node count at a fixed 55 m range.
func Fig7Xs() []float64 { return Fig6Xs() }

func rangeXs(lo, hi, step float64) []float64 {
	var out []float64
	for x := lo; x <= hi+1e-9; x += step {
		out = append(out, math.Round(x*100)/100)
	}
	return out
}

// ApplyFig2 sets the transmission range (40 nodes, 0.2 m/s).
func ApplyFig2(c Config, x float64) Config {
	c.Nodes, c.MaxSpeed, c.TxRange = 40, 0.2, x
	return c
}

// ApplyFig3 sets the transmission range (40 nodes, 2 m/s).
func ApplyFig3(c Config, x float64) Config {
	c.Nodes, c.MaxSpeed, c.TxRange = 40, 2, x
	return c
}

// ApplyFig4And5 sets the max speed (40 nodes, 75 m range).
func ApplyFig4And5(c Config, x float64) Config {
	c.Nodes, c.TxRange, c.MaxSpeed = 40, 75, x
	return c
}

// ApplyFig6 sets the node count, scaling the range to keep the mean
// neighbour count of the 40-node/75 m baseline: the expected degree in a
// uniform deployment scales with n·r², so r(n) = 75·sqrt(40/n).
func ApplyFig6(c Config, x float64) Config {
	c.MaxSpeed = 0.2
	c.Nodes = int(x)
	c.TxRange = 75 * math.Sqrt(40/x)
	return c
}

// ApplyFig7 sets the node count at a fixed 55 m range (0.2 m/s).
func ApplyFig7(c Config, x float64) Config {
	c.MaxSpeed = 0.2
	c.TxRange = 55
	c.Nodes = int(x)
	return c
}

// --- large-scale family (beyond the paper) ---
//
// The paper stops at 100 nodes on a fixed 200 m × 200 m field (Fig. 6
// holds mean degree constant there by shrinking the range as r(n) =
// 75·sqrt(40/n)). Shrinking the range much below 45 m fragments the
// network, so scaling past a few hundred nodes needs the opposite knob:
// the large-scale family keeps the paper's 75 m range and grows the
// field with the node count, holding node density — and hence mean
// degree (≈ n·πr²/A) — at the 40-node baseline. That makes the
// workload a pure scale sweep: per-node traffic locality is unchanged
// while the network diameter grows, which is exactly the regime where
// the grid neighbour index keeps radio events O(degree) instead of
// O(n). "Gossip-Based Ad Hoc Routing" (Haas, Halpern & Li) sweeps
// network size the same way to expose gossip's scaling behaviour.

// LargeScaleXs returns the node counts of the large-scale sweep.
func LargeScaleXs() []float64 { return []float64{100, 250, 500, 1000} }

// ApplyLargeScale sets the node count, growing the terrain so node
// density matches the paper's 40-nodes-per-200 m² baseline at a fixed
// 75 m range (side(n) = 200·sqrt(n/40)).
func ApplyLargeScale(c Config, x float64) Config {
	c.Nodes = int(x)
	side := 200 * math.Sqrt(x/40)
	c.Area = geom.Rect{W: side, H: side}
	c.TxRange = 75
	c.MaxSpeed = 0.2
	return c
}

// LargeScaleConfig returns the large-scale configuration at one node
// count: the paper's baseline protocol stack and traffic on the scaled
// terrain. Callers wanting a shorter run should use ShortenedData.
func LargeScaleConfig(nodes int) Config {
	return ApplyLargeScale(DefaultConfig(), float64(nodes))
}

// ShortenedData rescales the run to a shorter duration while keeping
// the paper's proportions: a 1/5 warm-up and a 40 s cool-down tail
// around the CBR window. It is the knob benchmarks and CI use to keep
// large-scale runs affordable. Durations of a minute or less collapse
// the tail to duration/5.
func ShortenedData(c Config, duration time.Duration) Config {
	c.Duration = duration
	c.DataStart = duration / 5
	tail := 40 * time.Second
	if duration <= 60*time.Second {
		tail = duration / 5
	}
	c.DataEnd = duration - tail
	return c
}

// --- huge-scale family (beyond the paper) ---
//
// The large-scale family stops at 1000 nodes. The huge family extends
// the same constant-density law (75 m range, side(n) = 200·sqrt(n/40))
// to 10k–100k nodes, where the questions change from delivery shape to
// engineering: does throughput stay O(events), and does per-node
// memory stay flat as the world grows? Its runs therefore measure the
// live heap (Config.MeasureHeap) alongside events/sec, and agbench
// -fig huge records heap_bytes_per_node / peak_heap_bytes in its
// -json output. At these scales a full paper-length
// run is hours; the family is meant to be swept with a short data
// window (agbench's -huge-duration, default 10 s), which makes the
// delivery columns warm-up-dominated noise — the family's results are
// the perf and memory columns, not the delivery tables.

// HugeScaleXs returns the node counts of the huge-scale sweep.
func HugeScaleXs() []float64 { return []float64{10000, 25000, 50000, 100000} }

// ApplyHugeScale sets the node count on the constant-density terrain
// (identical law to ApplyLargeScale) and turns on per-run heap
// measurement.
func ApplyHugeScale(c Config, x float64) Config {
	c = ApplyLargeScale(c, x)
	c.MeasureHeap = true
	return c
}

// HugeScaleConfig returns the huge-scale configuration at one node
// count. Callers almost always want ShortenedData on top.
func HugeScaleConfig(nodes int) Config {
	return ApplyHugeScale(DefaultConfig(), float64(nodes))
}

// --- dense-traffic family (beyond the paper) ---
//
// The large-scale family grows the network at the paper's baseline
// density (~15 neighbours). The dense family turns the opposite knob:
// it packs the field so every node hears 20–60 neighbours and runs
// multiple concurrent CBR sources, putting many frames in every
// neighbourhood at once. That is the regime where reception cost
// dominates — each broadcast reaches O(degree) receivers — so the
// family is the standing stress workload for the radio's batched
// reception path and any future channel work. The delivery-under-load
// questions of gossip-based routing at scale (Haas/Halpern/Li; Hu/Jehl,
// PAPERS.md) live in exactly this regime.

// DenseXs returns the target mean degrees of the dense-traffic sweep.
func DenseXs() []float64 { return []float64{20, 30, 40, 60} }

// DenseSources is the number of concurrent CBR senders in the dense
// family (phase-shifted; AG tracks sequence numbers per origin).
const DenseSources = 5

// DenseNodes is the family's default node count; agbench's -dense-nodes
// raises it to 500 or 1000 for the larger members.
const DenseNodes = 250

// ApplyDense reshapes c to one dense sweep point: the field is sized so
// the expected mean degree at the paper's 75 m range equals x for the
// config's node count — side(n, d) = sqrt(n·π·75²/d) — ignoring edge
// effects, which only push the true degree below the target. Node count
// and source count are taken from c (see DenseConfig). A non-positive
// (or NaN) degree yields a degenerate area that Validate rejects,
// rather than an infinite field that would simulate silently.
func ApplyDense(c Config, degree float64) Config {
	c.TxRange = 75
	c.MaxSpeed = 0.2
	if !(degree > 0) {
		c.Area = geom.Rect{}
		return c
	}
	side := math.Sqrt(float64(c.Nodes) * math.Pi * c.TxRange * c.TxRange / degree)
	c.Area = geom.Rect{W: side, H: side}
	return c
}

// DenseConfig returns the dense-traffic configuration at one node count
// and target mean degree: DenseSources concurrent senders on a field
// packed to the requested degree.
func DenseConfig(nodes int, degree float64) Config {
	c := DefaultConfig()
	c.Nodes = nodes
	c.NumSources = DenseSources
	return ApplyDense(c, degree)
}

// GoodputCase is one of Fig. 8's four (range, speed) combinations.
type GoodputCase struct {
	TxRange  float64
	MaxSpeed float64
}

// Fig8Cases returns the paper's four goodput configurations.
func Fig8Cases() []GoodputCase {
	return []GoodputCase{
		{TxRange: 45, MaxSpeed: 0.2},
		{TxRange: 75, MaxSpeed: 0.2},
		{TxRange: 45, MaxSpeed: 2},
		{TxRange: 75, MaxSpeed: 2},
	}
}

// GoodputRow reports per-member goodput for one Fig. 8 case.
type GoodputRow struct {
	Case GoodputCase
	// PerMember holds each member's goodput percentage, ordered by node
	// ID, concatenated across seeds.
	PerMember []float64
	Summary   stats.Summary
}

// RunGoodput executes the Fig. 8 experiment for one case. The stack
// under test is the base config's when it has a recovery layer, else
// the paper's MAODV+AG.
func RunGoodput(base Config, gc GoodputCase, seeds []int64, parallel int) (GoodputRow, error) {
	cfg := base
	if cfg.Spec().Recovery == "" {
		cfg.Stack = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	}
	cfg.Nodes = 40
	cfg.TxRange = gc.TxRange
	cfg.MaxSpeed = gc.MaxSpeed
	results, err := RunSeeds(cfg, seeds, parallel)
	if err != nil {
		return GoodputRow{}, err
	}
	row := GoodputRow{Case: gc}
	for _, r := range results {
		for _, m := range r.Members {
			row.PerMember = append(row.PerMember, m.Goodput)
		}
	}
	row.Summary = stats.Summarize(row.PerMember)
	return row, nil
}
