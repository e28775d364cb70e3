// Command agbench regenerates the paper's figures as text tables.
//
// Usage:
//
//	agbench -fig 2          # one figure
//	agbench -fig all        # everything
//	agbench -fig 4 -seeds 10 -parallel 4
//	agbench -fig large -duration 120s -large-max 500
//	agbench -fig dense -dense-nodes 500 -json bench.json
//
// Each table prints one row per x-axis point with the Gossip and MAODV
// mean delivery and [min, max] error bars across all members and seeds,
// the same series the paper plots. Figure 8 prints per-case goodput.
// With the paper's full 10-seed sweeps (-seeds 10) a figure takes a few
// minutes; the default 3 seeds preserve the shapes at a third of the
// cost.
//
// Beyond the paper, -fig large sweeps the large-scale family (100 to
// 1000 nodes at constant density; see EXPERIMENTS.md §L), -fig dense
// the dense-traffic family (mean degree 20–60 with multiple concurrent
// senders at -dense-nodes nodes; EXPERIMENTS.md §D), and -fig huge the
// huge-scale family (10k to 100k nodes at constant density;
// EXPERIMENTS.md §H) — a perf-and-memory sweep that runs a short
// -huge-duration data window and records peak_heap_bytes /
// heap_bytes_per_node in the -json record. At full duration the
// 1000-node points take tens of minutes — shrink with -duration and
// cap the sweeps with -large-max / -dense-max / -huge-max for
// previews.
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

type figure struct {
	id    int
	title string
	xName string
	xs    []float64
	apply func(scenario.Config, float64) scenario.Config
}

func figures() []figure {
	return []figure{
		{2, "Packet Delivery vs Transmission Range (speed 0.2 m/s)", "range(m)", scenario.Fig2Xs(), scenario.ApplyFig2},
		{3, "Packet Delivery vs Transmission Range (speed 2 m/s)", "range(m)", scenario.Fig3Xs(), scenario.ApplyFig3},
		{4, "Packet Delivery vs Maximum Speed 0.1-1.0 m/s (range 75 m)", "speed(m/s)", scenario.Fig4Xs(), scenario.ApplyFig4And5},
		{5, "Packet Delivery vs Maximum Speed 1-10 m/s (range 75 m)", "speed(m/s)", scenario.Fig5Xs(), scenario.ApplyFig4And5},
		{6, "Packet Delivery vs Number of Nodes (constant mean degree)", "nodes", scenario.Fig6Xs(), scenario.ApplyFig6},
		{7, "Packet Delivery vs Number of Nodes (range 55 m)", "nodes", scenario.Fig7Xs(), scenario.ApplyFig7},
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
	// the telemetry sampler on (the sampler is observe-only, so the run
	// is bit-identical to the sweep's same-seed run).
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

// addFigure converts a sweep's rows into the report's point records.
func (r *jsonReport) addFigure(id, title, xName string, rows []scenario.ComparisonRow) {
	fig := jsonFigure{Figure: id, Title: title, XName: xName}
	for _, row := range rows {
		events := row.Gossip.Events + row.Maodv.Events
		secs := row.Elapsed.Seconds()
		p := jsonPoint{
			X: row.X,
			Treatment: jsonAgg{Mean: row.Gossip.Received.Mean, Min: row.Gossip.Received.Min,
				Max: row.Gossip.Received.Max, Std: row.Gossip.Received.Std,
				Goodput: row.Gossip.Goodput, Sent: row.Gossip.Sent},
			Baseline: jsonAgg{Mean: row.Maodv.Received.Mean, Min: row.Maodv.Received.Min,
				Max: row.Maodv.Received.Max, Std: row.Maodv.Received.Std,
				Goodput: row.Maodv.Goodput, Sent: row.Maodv.Sent},
			Events:      events,
			WallSeconds: secs,
		}
		if secs > 0 {
			p.EventsPerSec = float64(events) / secs
		}
		if hb := max(row.Gossip.HeapLiveBytes, row.Maodv.HeapLiveBytes); hb > 0 {
			p.PeakHeapBytes = hb
			if row.X > 0 {
				p.HeapBytesPerNode = float64(hb) / row.X
			}
			if hb > r.PeakHeapBytes {
				r.PeakHeapBytes = hb
			}
			if p.HeapBytesPerNode > r.HeapBytesPerNode {
				r.HeapBytesPerNode = p.HeapBytesPerNode
			}
		}
		fig.Points = append(fig.Points, p)
	}
	r.Figures = append(r.Figures, fig)
}

func run(args []string) error {
	fs := flag.NewFlagSet("agbench", flag.ContinueOnError)
	var (
		fig   = fs.String("fig", "all", "figure to regenerate: 2..8, large, dense, or all")
		proto = fs.String("protocol", "maodv+gossip",
			"stack under test by name ("+strings.Join(stack.Names(), " | ")+
				"); its bare routing is the comparison baseline")
		seeds      = fs.Int("seeds", 3, "seeds per point (paper: 10)")
		parallel   = fs.Int("parallel", 0, "concurrent runs (0 = NumCPU)")
		duration   = fs.Duration("duration", 600*time.Second, "simulated time per run (shrink for quick previews)")
		largeMax   = fs.Int("large-max", 1000, "largest node count of the -fig large sweep")
		hugeMax    = fs.Int("huge-max", 100000, "largest node count of the -fig huge sweep")
		hugeMin    = fs.Int("huge-min", 0, "smallest node count of the -fig huge sweep (profiling workflows isolate the 100k point with -huge-min 100000)")
		hugeDur    = fs.Duration("huge-duration", 10*time.Second, "simulated time per -fig huge run (the family measures perf and memory, not delivery, so short data windows are expected)")
		denseNodes = fs.Int("dense-nodes", scenario.DenseNodes, "node count of the -fig dense sweep")
		denseMax   = fs.Int("dense-max", 60, "largest target degree of the -fig dense sweep")
		jsonPath   = fs.String("json", "", "write a machine-readable result record to this file")
		metricsOn  = fs.Bool("metrics", false,
			"collect a channel-utilization time series per sweep point (one extra single-seed sampler run per point; printed, added to -json, and written to -metrics-csv). Also arms the sampler on the timed sweep runs themselves — results stay bit-identical (observe-only contract) and the recorded wall times honestly include sampling overhead, which is what the CI overhead gate measures")
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

	treatment, err := stack.ByName(*proto)
	if err != nil {
		return err
	}
	if treatment.Recovery == "" {
		return fmt.Errorf("-protocol %q has no recovery layer to measure; pick a composed stack (e.g. %s+gossip)",
			*proto, treatment.Routing)
	}
	baseline := stack.Spec{Routing: treatment.Routing}
	treatCol := fmt.Sprintf("%v mean [min,max] (std)", treatment)
	baseCol := fmt.Sprintf("%v mean [min,max] (std)", baseline)

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

	want := map[int]bool{}
	wantLarge, wantDense, wantHuge := false, false, false
	switch *fig {
	case "all":
		for i := 2; i <= 8; i++ {
			want[i] = true
		}
	case "large":
		wantLarge = true
	case "dense":
		wantDense = true
	case "huge":
		wantHuge = true
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil || n < 2 || n > 8 {
			return fmt.Errorf("invalid -fig %q (want 2..8, large, dense, huge, or all)", *fig)
		}
		want[n] = true
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

	report := &jsonReport{
		GoVersion: runtime.Version(),
		Protocol:  treatment.String(),
		Baseline:  baseline.String(),
		Seeds:     *seeds,
		Duration:  base.Duration.String(),
	}

	var metricsCSVBuf strings.Builder

	// runMetrics collects each sweep point's channel-utilization series:
	// one representative run (first seed, treatment stack) per point with
	// the sampler on. Sampling is observe-only, so the run reproduces the
	// sweep's same-seed run bit for bit; only the telemetry is new.
	runMetrics := func(id, xName string, xs []float64, cfg scenario.Config,
		apply func(scenario.Config, float64) scenario.Config) ([][]metrics.Window, error) {
		out := make([][]metrics.Window, len(xs))
		for i, x := range xs {
			c := apply(cfg, x)
			c.Seed = seedList[0]
			c.MetricsWindow = *metricsWin
			res, err := scenario.Run(c)
			if err != nil {
				return nil, fmt.Errorf("metrics run %s=%v: %w", xName, x, err)
			}
			out[i] = res.Metrics.Windows
			fmt.Printf("-- channel utilization at %s=%.0f (seed %d, %v windows) --\n",
				xName, x, c.Seed, *metricsWin)
			if err := res.Metrics.WriteTable(os.Stdout); err != nil {
				return nil, err
			}
			if *metricsCSV != "" {
				fmt.Fprintf(&metricsCSVBuf, "# figure=%s %s=%v seed=%d\n", id, xName, x, c.Seed)
				if err := res.Metrics.WriteCSV(&metricsCSVBuf); err != nil {
					return nil, err
				}
			}
		}
		fmt.Println()
		return out, nil
	}

	// runSweep executes one x-axis sweep: print the table, record the
	// JSON figure. Every family (paper figures, large, dense) funnels
	// through it so the format and the record stay in lockstep.
	runSweep := func(id, title, xName, xFmt, note string, xs []float64, cfg scenario.Config,
		apply func(scenario.Config, float64) scenario.Config) error {
		fmt.Printf("=== %s ===\n", title)
		fmt.Printf("(%d seeds, %d packets sent %s)\n", len(seedList), cfg.ExpectedPackets(), note)
		fmt.Printf("%-10s | %28s | %28s\n", xName, treatCol, baseCol)
		if *metricsOn {
			// Sample the timed runs too: observe-only, so every number in
			// the table is bit-identical to an unsampled run, but the wall
			// times now carry the sampler's true overhead.
			cfg.MetricsWindow = *metricsWin
		}
		rows, err := scenario.RunComparisonStacks(cfg, xs, apply, seedList, *parallel, nil,
			treatment, baseline)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf(xFmt+" | %8.1f [%5.0f,%5.0f] (%5.1f) | %8.1f [%5.0f,%5.0f] (%5.1f)\n",
				r.X,
				r.Gossip.Received.Mean, r.Gossip.Received.Min, r.Gossip.Received.Max, r.Gossip.Received.Std,
				r.Maodv.Received.Mean, r.Maodv.Received.Min, r.Maodv.Received.Max, r.Maodv.Received.Std)
		}
		fmt.Println()
		report.addFigure(id, title, xName, rows)
		if *metricsOn {
			series, err := runMetrics(id, xName, xs, cfg, apply)
			if err != nil {
				return err
			}
			fig := &report.Figures[len(report.Figures)-1]
			for i := range fig.Points {
				fig.Points[i].Metrics = series[i]
			}
		}
		return nil
	}
	for _, f := range figures() {
		if !want[f.id] {
			continue
		}
		if err := runSweep(strconv.Itoa(f.id), fmt.Sprintf("Figure %d: %s", f.id, f.title),
			f.xName, "%-10.1f", "per run", f.xs, base, f.apply); err != nil {
			return err
		}
	}

	if wantLarge {
		var xs []float64
		for _, x := range scenario.LargeScaleXs() {
			if int(x) <= *largeMax {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return fmt.Errorf("-large-max %d excludes every sweep point", *largeMax)
		}
		if err := runSweep("large",
			"Large scale: Packet Delivery vs Number of Nodes (constant density, 75 m range)",
			"nodes", "%-10.0f", "per run", xs, base, scenario.ApplyLargeScale); err != nil {
			return err
		}
	}

	if wantHuge {
		var xs []float64
		for _, x := range scenario.HugeScaleXs() {
			if int(x) <= *hugeMax && int(x) >= *hugeMin {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return fmt.Errorf("-huge-min %d / -huge-max %d exclude every sweep point", *hugeMin, *hugeMax)
		}
		// The huge family runs its own short data window (heap and
		// events/sec are its results, not delivery) and reports that
		// duration so gate comparisons stay like for like.
		hbase := scenario.ShortenedData(base, *hugeDur)
		report.Duration = hbase.Duration.String()
		title := fmt.Sprintf("Huge scale: perf and memory vs Number of Nodes (constant density, 75 m range, %v window)", *hugeDur)
		if err := runSweep("huge", title, "nodes", "%-10.0f",
			"per run", xs, hbase, scenario.ApplyHugeScale); err != nil {
			return err
		}
		for _, f := range report.Figures {
			if f.Figure != "huge" {
				continue
			}
			fmt.Println("huge-scale memory:")
			for _, p := range f.Points {
				fmt.Printf("%8.0f nodes  %12d peak heap bytes  %8.0f bytes/node  %10.0f events/sec\n",
					p.X, p.PeakHeapBytes, p.HeapBytesPerNode, p.EventsPerSec)
			}
			fmt.Println()
		}
	}

	if wantDense {
		var xs []float64
		for _, x := range scenario.DenseXs() {
			if x <= float64(*denseMax) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return fmt.Errorf("-dense-max %d excludes every sweep point", *denseMax)
		}
		dbase := base
		dbase.Nodes = *denseNodes
		dbase.NumSources = scenario.DenseSources
		title := fmt.Sprintf("Dense traffic: Packet Delivery vs Mean Degree (%d nodes, %d sources, 75 m range)",
			*denseNodes, scenario.DenseSources)
		if err := runSweep("dense", title, "degree", "%-10.0f",
			"per source per run", xs, dbase, scenario.ApplyDense); err != nil {
			return err
		}
	}

	if want[8] {
		fmt.Println("=== Figure 8: Goodput at group members ===")
		fmt.Printf("%-18s | %10s %8s %8s\n", "case", "mean", "min", "max")
		for _, gc := range scenario.Fig8Cases() {
			caseStart := time.Now()
			row, err := scenario.RunGoodput(base, gc, seedList, *parallel)
			if err != nil {
				return err
			}
			fmt.Printf("%4.0fm, %3.1fm/s      | %9.2f%% %7.2f%% %7.2f%%\n",
				gc.TxRange, gc.MaxSpeed, row.Summary.Mean, row.Summary.Min, row.Summary.Max)
			report.Goodput = append(report.Goodput, jsonGoodput{
				RangeM: gc.TxRange, SpeedMS: gc.MaxSpeed,
				Mean: row.Summary.Mean, Min: row.Summary.Min, Max: row.Summary.Max,
				WallSeconds: time.Since(caseStart).Seconds(),
			})
		}
		fmt.Println()
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
		for _, f := range report.Figures {
			for _, p := range f.Points {
				report.TotalEvents += p.Events
			}
		}
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
