package scenario

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
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
	// RouteDiscoveries is the mean per-run Result.RouteDiscoveries.
	RouteDiscoveries float64
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
	var discoveries uint64
	for _, r := range results {
		agg.Received = stats.Merge(agg.Received, r.Received)
		goodputSum += r.MeanGoodput()
		sentSum += r.Sent
		discoveries += r.RouteDiscoveries
	}
	if len(results) > 0 {
		agg.Goodput = goodputSum / float64(len(results))
		agg.Sent = (sentSum + len(results)/2) / len(results)
		agg.RouteDiscoveries = float64(discoveries) / float64(len(results))
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
}

// Pair returns the two stacks a comparison measures on base: the
// treatment is base's stack, or the paper's MAODV+AG when that stack has
// no recovery layer, and the baseline is the treatment's bare routing.
func Pair(base Config) (treatment, baseline stack.Spec) {
	treatment = base.Spec()
	if treatment.Recovery == "" {
		treatment = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	}
	return treatment, stack.Spec{Routing: treatment.Routing}
}

// RunComparison sweeps xs, running both stacks of Pair(base) at each
// point with the given seeds. apply customises the base config for an x
// value.
func RunComparison(base Config, xs []float64, apply func(Config, float64) Config,
	seeds []int64, parallel int) ([]ComparisonRow, error) {
	treatment, baseline := Pair(base)
	rows := make([]ComparisonRow, 0, len(xs))
	for _, x := range xs {
		cfg := apply(base, x)
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
		rows = append(rows, ComparisonRow{X: x, Gossip: AggregateResults(tRes), Maodv: AggregateResults(bRes)})
	}
	return rows, nil
}

// PrintComparison writes rows, sweep s run on base with the given number
// of seeds, as the comparison table: the heading, the seed and packet
// counts, then one line per point with each stack's mean [min,max]
// (std) packets received per member.
func PrintComparison(w io.Writer, s Sweep, base Config, seeds int, rows []ComparisonRow) {
	first := s.Apply(base, s.Xs[0])
	treatment, baseline := Pair(base)
	per, xFmt := "per run", "%-10g"
	if first.NumSources > 1 {
		per = "per source per run"
	}
	if s.Paper() {
		xFmt = "%-10.1f"
	}
	fmt.Fprintf(w, "=== %s ===\n", s.Heading(base))
	fmt.Fprintf(w, "(%d seeds, %d packets sent %s)\n", seeds, first.ExpectedPackets(), per)
	fmt.Fprintf(w, "%-10s | %28s | %28s\n", s.XName,
		fmt.Sprintf("%v mean [min,max] (std)", treatment), fmt.Sprintf("%v mean [min,max] (std)", baseline))
	for _, r := range rows {
		t, b := r.Gossip.Received, r.Maodv.Received
		fmt.Fprintf(w, xFmt+" | %8.1f [%5.0f,%5.0f] (%5.1f) | %8.1f [%5.0f,%5.0f] (%5.1f)\n",
			r.X, t.Mean, t.Min, t.Max, t.Std, b.Mean, b.Min, b.Max, b.Std)
	}
	fmt.Fprintln(w)
}

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

// Sweep is one x-axis experiment: a paper figure or a family beyond the
// paper. Apply reshapes a base config to the point x.
type Sweep struct {
	// ID names the sweep: the paper's figure number, or the family.
	ID string
	// Title heads the sweep's table; Heading fills its {nodes} and
	// {sources} placeholders.
	Title string
	XName string
	Xs    []float64
	Apply func(Config, float64) Config
}

// Sweeps returns every x-axis experiment (DESIGN.md §3): the paper's
// Figs. 2–7, then the large-scale and dense-traffic families
// beyond the paper, then the gossip ablations A2–A4. Fig. 8 has no x
// axis; see Fig8Cases.
func Sweeps() []Sweep {
	rangeAt := func(speed float64) func(Config, float64) Config {
		return func(c Config, x float64) Config {
			c.Nodes, c.MaxSpeed, c.TxRange = 40, speed, x
			return c
		}
	}
	speed := func(c Config, x float64) Config {
		c.Nodes, c.TxRange, c.MaxSpeed = 40, 75, x
		return c
	}
	nodesAt := func(txRange func(n float64) float64) func(Config, float64) Config {
		return func(c Config, x float64) Config {
			c.MaxSpeed, c.Nodes, c.TxRange = 0.2, int(x), txRange(x)
			return c
		}
	}
	// An ablation turns one gossip knob at a mid-loss point, 55 m and
	// 1 m/s, where recovery does real work.
	ablation := func(set func(c *Config, x float64)) func(Config, float64) Config {
		return func(c Config, x float64) Config {
			c.Nodes, c.TxRange, c.MaxSpeed = 40, 55, 1
			set(&c, x)
			return c
		}
	}
	return []Sweep{
		{"2", "Figure 2: Packet Delivery vs Transmission Range (speed 0.2 m/s)", "range(m)",
			rangeXs(45, 85, 5), rangeAt(0.2)},
		{"3", "Figure 3: Packet Delivery vs Transmission Range (speed 2 m/s)", "range(m)",
			rangeXs(45, 85, 5), rangeAt(2)},
		{"4", "Figure 4: Packet Delivery vs Maximum Speed 0.1-1.0 m/s (range 75 m)", "speed(m/s)",
			rangeXs(0.1, 1.0, 0.1), speed},
		{"5", "Figure 5: Packet Delivery vs Maximum Speed 1-10 m/s (range 75 m)", "speed(m/s)",
			rangeXs(1, 10, 1), speed},
		// The range shrinks to keep the mean neighbour count of the
		// 40-node/75 m baseline: the expected degree in a uniform
		// deployment scales with n·r², so r(n) = 75·sqrt(40/n).
		{"6", "Figure 6: Packet Delivery vs Number of Nodes (constant mean degree)", "nodes",
			rangeXs(40, 100, 15), nodesAt(func(n float64) float64 { return 75 * math.Sqrt(40/n) })},
		{"7", "Figure 7: Packet Delivery vs Number of Nodes (range 55 m)", "nodes",
			rangeXs(40, 100, 15), nodesAt(func(float64) float64 { return 55 })},
		{"large", "Large scale: Packet Delivery vs Number of Nodes (constant density, 75 m range)", "nodes",
			[]float64{100, 250, 500, 1000}, largeScale},
		{"dense", "Dense traffic: Packet Delivery vs Mean Degree ({nodes} nodes, {sources} sources, 75 m range)", "degree",
			[]float64{20, 30, 40, 60}, dense},
		{"a2", "Ablation A2: Packet Delivery vs Anonymous Share PAnon (range 55 m, speed 1 m/s)", "panon",
			[]float64{0.7, 1}, ablation(func(c *Config, x float64) { c.Gossip.PAnon = x })},
		{"a3", "Ablation A3: Packet Delivery vs Gossip Interval (range 55 m, speed 1 m/s)", "period(ms)",
			[]float64{500, 1000, 2000, 4000},
			ablation(func(c *Config, x float64) { c.Gossip.Interval = time.Duration(x) * time.Millisecond })},
		{"a4", "Ablation A4: Packet Delivery vs History Table Size (range 55 m, speed 1 m/s)", "history",
			[]float64{25, 50, 100, 200, 400}, ablation(func(c *Config, x float64) { c.Gossip.HistoryCap = int(x) })},
	}
}

// Paper reports whether s is one of the paper's figures (its ID is the
// figure number) rather than a family beyond the paper.
func (s Sweep) Paper() bool {
	_, err := strconv.Atoi(s.ID)
	return err == nil
}

// Heading is the sweep's table title on base: Title with {nodes} and
// {sources} replaced by the first point's node count and source count.
func (s Sweep) Heading(base Config) string {
	c := s.Apply(base, s.Xs[0])
	return strings.NewReplacer("{nodes}", strconv.Itoa(c.Nodes), "{sources}", strconv.Itoa(c.NumSources)).Replace(s.Title)
}

func rangeXs(lo, hi, step float64) []float64 {
	var out []float64
	for x := lo; x <= hi+1e-9; x += step {
		out = append(out, math.Round(x*100)/100)
	}
	return out
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

// largeScale sets the node count, growing the terrain so node density
// matches the paper's 40-nodes-per-200 m² baseline at a fixed 75 m
// range (side(n) = 200·sqrt(n/40)).
func largeScale(c Config, x float64) Config {
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
	return largeScale(DefaultConfig(), float64(nodes))
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

// HugeScaleConfig returns the large-scale configuration at one node
// count with Config.MeasureHeap set: past 1000 nodes per-node memory,
// not delivery, is the question (bench/ and TestHugeMemoryPerNode run it
// on short data windows). Callers almost always want ShortenedData.
func HugeScaleConfig(nodes int) Config {
	c := LargeScaleConfig(nodes)
	c.MeasureHeap = true
	return c
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

// DenseSources is the number of concurrent CBR senders in the dense
// family (phase-shifted; AG tracks sequence numbers per origin).
const DenseSources = 5

// DenseNodes is the family's default node count; agbench's -dense-nodes
// raises it to 500 or 1000 for the larger members.
const DenseNodes = 250

// dense reshapes c to one dense sweep point: DenseSources senders on a
// field sized so the expected mean degree at the paper's 75 m range
// equals degree for the config's node count — side(n, d) = sqrt(n·π·75²/d) —
// ignoring edge effects, which only push the true degree below the
// target. A non-positive (or NaN) degree yields a degenerate area that
// Validate rejects, rather than an infinite field that would simulate
// silently.
func dense(c Config, degree float64) Config {
	c.NumSources = DenseSources
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
// and target mean degree, with DenseSources concurrent senders.
func DenseConfig(nodes int, degree float64) Config {
	c := DefaultConfig()
	c.Nodes = nodes
	return dense(c, degree)
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

// RunGoodput executes the Fig. 8 experiment for one case on the
// treatment stack of Pair(base).
func RunGoodput(base Config, gc GoodputCase, seeds []int64, parallel int) (GoodputRow, error) {
	cfg := base
	cfg.Stack, _ = Pair(base)
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

// PrintGoodput writes Fig. 8's goodput table, one line per case.
func PrintGoodput(w io.Writer, rows []GoodputRow) {
	fmt.Fprintln(w, "=== Figure 8: Goodput at group members ===")
	fmt.Fprintf(w, "%-18s | %10s %8s %8s\n", "case", "mean", "min", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%4.0fm, %3.1fm/s      | %9.2f%% %7.2f%% %7.2f%%\n",
			r.Case.TxRange, r.Case.MaxSpeed, r.Summary.Mean, r.Summary.Min, r.Summary.Max)
	}
	fmt.Fprintln(w)
}
