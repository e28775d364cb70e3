// Command agbench regenerates the paper's figures as text tables.
//
// Usage:
//
//	agbench -fig 2          # one figure
//	agbench -fig all        # everything
//	agbench -fig 4 -seeds 10 -parallel 4
//	agbench -fig large -duration 120s -x 100,250,500
//	agbench -fig dense -dense-nodes 500 -json bench.json
//	agbench -fig a3 -seeds 10
//
// Each table prints one row per x-axis point with the Gossip and MAODV
// mean delivery and [min, max] error bars across all members and seeds,
// the same series the paper plots. Figure 8 prints per-case goodput.
// With the paper's full 10-seed sweeps (-seeds 10) a figure takes a few
// minutes; the default 3 seeds preserve the shapes at a third of the
// cost.
//
// Every sweep is an entry of scenario.Sweeps. Beyond the paper, -fig
// large sweeps the large-scale family (EXPERIMENTS.md §L) and -fig dense
// the dense-traffic family at -dense-nodes nodes (§D). At full duration
// the 1000-node points take tens of minutes — shrink with -duration and
// pick points of the one -fig sweep with -x for previews. -fig a2, a3
// and a4 sweep one gossip knob each (DESIGN.md §3's ablations).
//
// -json writes the machine-readable delivery record: per-point delivery
// stats and goodput, and with -metrics the channel-utilization series.
// What a run costs is measured by bench/, not here.
//
// The -protocol flag picks the stack under test by name (e.g.
// -protocol flood+gossip); its bare routing protocol becomes the
// comparison baseline, so the tables generalise the paper's
// Gossip-vs-Maodv pairing to any composed stack. -help lists the
// stacks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/scenario"
	"anongossip/internal/stack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agbench:", err)
		os.Exit(1)
	}
}

// --- machine-readable run record (-json) ---

// jsonAgg is one stack's aggregate at one sweep point. Sent is
// per-stack: under overload source sends fail stack-dependently, so
// each stack's delivery ratio needs its own denominator.
type jsonAgg struct {
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Std     float64 `json:"std"`
	Goodput float64 `json:"goodput"`
	Sent    int     `json:"sent"`
	// RouteDiscoveries is the mean count of unicast route discoveries
	// started per run (not the RREQs they send).
	RouteDiscoveries float64 `json:"route_discoveries"`
}

// jsonPoint is one x-axis point of one figure.
type jsonPoint struct {
	X         float64 `json:"x"`
	Treatment jsonAgg `json:"treatment"`
	Baseline  jsonAgg `json:"baseline"`
	// Metrics carries the point's channel-utilization time series when
	// -metrics is set: one representative single-seed run per point with
	// sampling on (sampling is observe-only, so the run is bit-identical
	// to the sweep's same-seed run).
	Metrics []metrics.Window `json:"metrics,omitempty"`
}

// jsonFigure is one completed sweep.
type jsonFigure struct {
	Figure string      `json:"figure"`
	Title  string      `json:"title"`
	XName  string      `json:"x_name"`
	Points []jsonPoint `json:"points"`
}

// jsonGoodput is one Fig. 8 goodput case.
type jsonGoodput struct {
	RangeM  float64 `json:"range_m"`
	SpeedMS float64 `json:"speed_ms"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// jsonReport is the full -json record: configuration axes first, so
// results are never compared across different workloads.
type jsonReport struct {
	Protocol string        `json:"protocol"`
	Baseline string        `json:"baseline"`
	Seeds    int           `json:"seeds"`
	Duration string        `json:"duration"`
	Figures  []jsonFigure  `json:"figures,omitempty"`
	Goodput  []jsonGoodput `json:"goodput_cases,omitempty"`
}

// aggJSON is one stack's aggregate as the record stores it.
func aggJSON(a scenario.Aggregate) jsonAgg {
	return jsonAgg{Mean: a.Received.Mean, Min: a.Received.Min, Max: a.Received.Max, Std: a.Received.Std,
		Goodput: a.Goodput, Sent: a.Sent, RouteDiscoveries: a.RouteDiscoveries}
}

// addFigure converts sweep s's rows, run on cfg, into the report's
// point records.
func (r *jsonReport) addFigure(s scenario.Sweep, cfg scenario.Config, rows []scenario.ComparisonRow) *jsonFigure {
	fig := jsonFigure{Figure: s.ID, Title: s.Heading(cfg), XName: s.XName}
	for _, row := range rows {
		fig.Points = append(fig.Points, jsonPoint{X: row.X, Treatment: aggJSON(row.Gossip), Baseline: aggJSON(row.Maodv)})
	}
	r.Figures = append(r.Figures, fig)
	return &r.Figures[len(r.Figures)-1]
}

func run(args []string) error {
	fs := flag.NewFlagSet("agbench", flag.ContinueOnError)
	var (
		fig   = fs.String("fig", "all", "figure to regenerate: "+figNames())
		xList = fs.String("x", "", "comma-separated points of the one -fig sweep to run (default: all of them)")
		proto = fs.String("protocol", "maodv+gossip",
			"stack under test by name ("+strings.Join(stack.Names(), " | ")+
				"); its bare routing is the comparison baseline")
		seeds      = fs.Int("seeds", 3, "seeds per point (paper: 10)")
		parallel   = fs.Int("parallel", 0, "concurrent runs (0 = NumCPU)")
		duration   = fs.Duration("duration", 600*time.Second, "simulated time per run (shrink for quick previews)")
		denseNodes = fs.Int("dense-nodes", scenario.DenseNodes, "node count of the -fig dense sweep")
		jsonPath   = fs.String("json", "", "write a machine-readable result record to this file")
		metricsOn  = fs.Bool("metrics", false,
			"collect a channel-utilization time series per sweep point (one extra single-seed sampled run per point; printed and added to -json)")
		metricsWin = fs.Duration("metrics-window", 10*time.Second, "sampling cadence for -metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least one seed per point", *seeds)
	}
	if *metricsOn && *metricsWin <= 0 {
		return fmt.Errorf("-metrics-window %v: -metrics needs a positive sampling window", *metricsWin)
	}

	// -fig all is the paper: Figs. 2–7 and Fig. 8's goodput table.
	var sweeps []scenario.Sweep
	for _, s := range scenario.Sweeps() {
		if s.ID == *fig || *fig == "all" && s.Paper() {
			sweeps = append(sweeps, s)
		}
	}
	goodput := *fig == "all" || *fig == "8"
	if len(sweeps) == 0 && !goodput {
		return fmt.Errorf("invalid -fig %q (want %s)", *fig, figNames())
	}
	if *xList != "" {
		if len(sweeps) != 1 {
			return fmt.Errorf("-x %s: -fig %s does not name one sweep", *xList, *fig)
		}
		xs, err := points(sweeps[0], *xList)
		if err != nil {
			return err
		}
		sweeps[0].Xs = xs
	}

	treatment, err := stack.ByName(*proto)
	if err != nil {
		return err
	}
	if treatment.Recovery == "" {
		return fmt.Errorf("-protocol %q has no recovery layer to measure; pick a composed stack (e.g. %s+gossip)",
			*proto, treatment.Routing)
	}

	base := scenario.DefaultConfig()
	base.Stack = treatment // Fig. 8 goodput follows the stack under test
	if *duration != base.Duration {
		// Below ~a minute the paper's warm-up/cool-down proportions are
		// gone and any table would be noise.
		if *duration <= 60*time.Second {
			return fmt.Errorf("duration %v too short for a data window (need > 60s)", *duration)
		}
		base = scenario.ShortenedData(base, *duration)
	}
	seedList := scenario.Seeds(*seeds)
	start := time.Now()

	_, baseline := scenario.Pair(base)
	report := &jsonReport{
		Protocol: treatment.String(),
		Baseline: baseline.String(),
		Seeds:    *seeds,
		Duration: base.Duration.String(),
	}

	for _, s := range sweeps {
		cfg := base
		if s.ID == "dense" {
			cfg.Nodes = *denseNodes
		}
		rows, err := scenario.RunComparison(cfg, s.Xs, s.Apply, seedList, *parallel)
		if err != nil {
			return err
		}
		scenario.PrintComparison(os.Stdout, s, cfg, len(seedList), rows)
		fig := report.addFigure(s, cfg, rows)
		// One sampled first-seed treatment run per point (see jsonPoint.Metrics).
		if *metricsOn {
			for i, x := range s.Xs {
				c := s.Apply(cfg, x)
				c.Seed, c.MetricsWindow = seedList[0], *metricsWin
				res, err := scenario.Run(c)
				if err != nil {
					return fmt.Errorf("metrics run %s=%v: %w", s.XName, x, err)
				}
				fig.Points[i].Metrics = res.Metrics.Windows
				fmt.Printf("-- channel utilization at %s=%g (seed %d, %v windows) --\n",
					s.XName, x, c.Seed, *metricsWin)
				if err := res.Metrics.WriteTable(os.Stdout); err != nil {
					return err
				}
			}
			fmt.Println()
		}
	}

	if goodput {
		var rows []scenario.GoodputRow
		for _, gc := range scenario.Fig8Cases() {
			row, err := scenario.RunGoodput(base, gc, seedList, *parallel)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			report.Goodput = append(report.Goodput, jsonGoodput{
				RangeM: gc.TxRange, SpeedMS: gc.MaxSpeed,
				Mean: row.Summary.Mean, Min: row.Summary.Min, Max: row.Summary.Max,
			})
		}
		scenario.PrintGoodput(os.Stdout, rows)
	}

	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// figNames lists the -fig values: the sweeps of scenario.Sweeps, with
// Fig. 8's goodput table after the paper's line figures, and all.
func figNames() string {
	var paper, other []string
	for _, s := range scenario.Sweeps() {
		if s.Paper() {
			paper = append(paper, s.ID)
		} else {
			other = append(other, s.ID)
		}
	}
	return strings.Join(slices.Concat(paper, []string{"8"}, other), ", ") + ", or all (Figs. 2–8)"
}

// points parses the -x list of points of s into ascending order; each
// must be one of the sweep's points.
func points(s scenario.Sweep, list string) ([]float64, error) {
	var xs []float64
	for _, f := range strings.Split(list, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !slices.Contains(s.Xs, x) {
			return nil, fmt.Errorf("-x %s: %q is not a point of -fig %s %v", list, f, s.ID, s.Xs)
		}
		xs = append(xs, x)
	}
	slices.Sort(xs)
	return slices.Compact(xs), nil
}
