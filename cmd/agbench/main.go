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
// large sweeps the large-scale family (EXPERIMENTS.md §L), -fig dense
// the dense-traffic family at -dense-nodes nodes (§D), and -fig huge
// the huge-scale family (§H), a perf-and-memory sweep that runs a short
// -huge-duration data window and records peak_heap_bytes /
// heap_bytes_per_node in the -json record. At full duration the
// 1000-node points take tens of minutes — shrink with -duration and
// pick points of the one -fig sweep with -x for previews. -fig a2, a3
// and a4 sweep one gossip knob each (DESIGN.md §3's ablations).
//
// -cpuprofile/-memprofile write pprof profiles for bottleneck hunts
// (see EXPERIMENTS.md, "Profiling workflow").
//
// -json writes the machine-readable run record — per-point delivery
// stats, logical events, wall time and events/sec.
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
	"runtime"
	"runtime/pprof"
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
}

// jsonPoint is one x-axis point of one figure.
type jsonPoint struct {
	X            float64 `json:"x"`
	Treatment    jsonAgg `json:"treatment"`
	Baseline     jsonAgg `json:"baseline"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakHeapBytes and HeapBytesPerNode carry the post-run live-heap
	// sample of heap-measured sweeps (the huge family, whose x axis is
	// the node count); zero elsewhere.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes,omitempty"`
	HeapBytesPerNode float64 `json:"heap_bytes_per_node,omitempty"`
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
	RangeM      float64 `json:"range_m"`
	SpeedMS     float64 `json:"speed_ms"`
	Mean        float64 `json:"mean"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	WallSeconds float64 `json:"wall_seconds"`
}

// jsonReport is the full -json record: configuration axes first, so
// perf numbers are never compared across different workloads.
type jsonReport struct {
	GoVersion        string        `json:"go_version"`
	Protocol         string        `json:"protocol"`
	Baseline         string        `json:"baseline"`
	Seeds            int           `json:"seeds"`
	Duration         string        `json:"duration"`
	Figures          []jsonFigure  `json:"figures,omitempty"`
	Goodput          []jsonGoodput `json:"goodput_cases,omitempty"`
	TotalWallSeconds float64       `json:"total_wall_seconds"`
	// TotalEvents sums logical events over every figure point, and
	// MallocsPerEvent divides the process's heap allocation count over
	// the same span — a coarse allocation-rate metric to read
	// alongside events/sec.
	TotalEvents     uint64  `json:"total_events"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
	// PeakHeapBytes is the largest post-run live heap across the
	// record's heap-measured runs, and HeapBytesPerNode the largest
	// per-node footprint (live heap over node count at that point;
	// TestHugeMemoryPerNode bounds it). Zero unless a heap-measured
	// family (huge) ran.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes,omitempty"`
	HeapBytesPerNode float64 `json:"heap_bytes_per_node,omitempty"`
}

// aggJSON is one stack's aggregate as the record stores it.
func aggJSON(a scenario.Aggregate) jsonAgg {
	return jsonAgg{Mean: a.Received.Mean, Min: a.Received.Min, Max: a.Received.Max, Std: a.Received.Std,
		Goodput: a.Goodput, Sent: a.Sent}
}

// addFigure converts sweep s's rows, run on cfg, into the report's
// point records.
func (r *jsonReport) addFigure(s scenario.Sweep, cfg scenario.Config, rows []scenario.ComparisonRow) *jsonFigure {
	fig := jsonFigure{Figure: s.ID, Title: s.Heading(cfg), XName: s.XName}
	for _, row := range rows {
		events := row.Gossip.Events + row.Maodv.Events
		secs := row.Elapsed.Seconds()
		p := jsonPoint{X: row.X, Treatment: aggJSON(row.Gossip), Baseline: aggJSON(row.Maodv),
			Events: events, WallSeconds: secs}
		r.TotalEvents += events
		if secs > 0 {
			p.EventsPerSec = float64(events) / secs
		}
		if hb := max(row.Gossip.HeapLiveBytes, row.Maodv.HeapLiveBytes); hb > 0 {
			p.PeakHeapBytes = hb
			if row.X > 0 {
				p.HeapBytesPerNode = float64(hb) / row.X
			}
			r.PeakHeapBytes = max(r.PeakHeapBytes, hb)
			r.HeapBytesPerNode = max(r.HeapBytesPerNode, p.HeapBytesPerNode)
		}
		fig.Points = append(fig.Points, p)
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
		hugeDur    = fs.Duration("huge-duration", 10*time.Second, "simulated time per -fig huge run (the family measures perf and memory, not delivery, so short data windows are expected)")
		denseNodes = fs.Int("dense-nodes", scenario.DenseNodes, "node count of the -fig dense sweep")
		jsonPath   = fs.String("json", "", "write a machine-readable result record to this file")
		metricsOn  = fs.Bool("metrics", false,
			"collect a channel-utilization time series per sweep point (one extra single-seed sampled run per point; printed, added to -json, and written to -metrics-csv). The timed sweep runs stay unsampled")
		metricsWin = fs.Duration("metrics-window", 10*time.Second, "sampling cadence for -metrics")
		metricsCSV = fs.String("metrics-csv", "", "write the -metrics series as CSV to this file")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "agbench: memprofile:", err)
			}
		}()
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
	var memStart runtime.MemStats
	runtime.ReadMemStats(&memStart)

	_, baseline := scenario.Pair(base)
	report := &jsonReport{
		GoVersion: runtime.Version(),
		Protocol:  treatment.String(),
		Baseline:  baseline.String(),
		Seeds:     *seeds,
		Duration:  base.Duration.String(),
	}

	var metricsCSVBuf strings.Builder

	for _, s := range sweeps {
		cfg := base
		switch s.ID {
		case "huge":
			// The huge family runs its own short data window (heap and
			// events/sec are its results, not delivery) and reports that
			// duration so gate comparisons stay like for like.
			cfg = scenario.ShortenedData(cfg, *hugeDur)
			report.Duration = cfg.Duration.String()
		case "dense":
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
				if *metricsCSV != "" {
					fmt.Fprintf(&metricsCSVBuf, "# figure=%s %s=%v seed=%d\n", s.ID, s.XName, x, c.Seed)
					if err := res.Metrics.WriteCSV(&metricsCSVBuf); err != nil {
						return err
					}
				}
			}
			fmt.Println()
		}
		if fig.Points[0].PeakHeapBytes > 0 {
			fmt.Printf("%s-scale memory:\n", s.ID)
			for _, p := range fig.Points {
				fmt.Printf("%8.0f nodes  %12d peak heap bytes  %8.0f bytes/node  %10.0f events/sec\n",
					p.X, p.PeakHeapBytes, p.HeapBytesPerNode, p.EventsPerSec)
			}
			fmt.Println()
		}
	}

	if goodput {
		var rows []scenario.GoodputRow
		for _, gc := range scenario.Fig8Cases() {
			caseStart := time.Now()
			row, err := scenario.RunGoodput(base, gc, seedList, *parallel)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			report.Goodput = append(report.Goodput, jsonGoodput{
				RangeM: gc.TxRange, SpeedMS: gc.MaxSpeed,
				Mean: row.Summary.Mean, Min: row.Summary.Min, Max: row.Summary.Max,
				WallSeconds: time.Since(caseStart).Seconds(),
			})
		}
		scenario.PrintGoodput(os.Stdout, rows)
	}

	total := time.Since(start)
	fmt.Printf("total wall time: %v\n", total.Round(time.Second))

	if *metricsCSV != "" && metricsCSVBuf.Len() > 0 {
		if err := os.WriteFile(*metricsCSV, []byte(metricsCSVBuf.String()), 0o644); err != nil {
			return fmt.Errorf("metrics-csv: %w", err)
		}
		fmt.Printf("wrote %s\n", *metricsCSV)
	}

	if *jsonPath != "" {
		report.TotalWallSeconds = total.Seconds()
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		if report.TotalEvents > 0 {
			report.MallocsPerEvent = float64(memEnd.Mallocs-memStart.Mallocs) / float64(report.TotalEvents)
		}
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
