// Benchmark harness: one benchmark per paper table/figure plus the
// ablations listed in DESIGN.md §3. Each benchmark executes the full
// experiment sweep once per iteration and prints the same rows the
// paper's figure plots, so
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// regenerates every result. Benchmarks default to 2 seeds per point to
// keep the suite in the minutes range; set AG_BENCH_FULL=1 for the
// paper's 10-seed sweeps.
package anongossip_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"anongossip"
	"anongossip/internal/gossip"
	"anongossip/internal/scenario"
)

func benchSeeds() []int64 {
	if os.Getenv("AG_BENCH_FULL") != "" {
		return scenario.Seeds(10)
	}
	return scenario.Seeds(2)
}

// runFigure executes a Gossip-vs-MAODV sweep, prints its rows, and
// reports the mid-sweep means as benchmark metrics.
func runFigure(b *testing.B, name, xName string, xs []float64,
	apply func(scenario.Config, float64) scenario.Config) {
	b.Helper()
	base := scenario.DefaultConfig()
	seeds := benchSeeds()
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RunComparison(base, xs, apply, seeds, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n--- %s (%d seeds, %d pkts/run) ---\n", name, len(seeds), base.ExpectedPackets())
		fmt.Printf("%-10s | %26s | %26s\n", xName, "Gossip mean [min,max]", "Maodv mean [min,max]")
		for _, r := range rows {
			fmt.Printf("%-10.1f | %8.1f [%6.0f,%6.0f] | %8.1f [%6.0f,%6.0f]\n",
				r.X,
				r.Gossip.Received.Mean, r.Gossip.Received.Min, r.Gossip.Received.Max,
				r.Maodv.Received.Mean, r.Maodv.Received.Min, r.Maodv.Received.Max)
		}
		mid := rows[len(rows)/2]
		b.ReportMetric(mid.Gossip.Received.Mean, "gossip_pkts")
		b.ReportMetric(mid.Maodv.Received.Mean, "maodv_pkts")
		b.ReportMetric(mid.Gossip.Received.Max-mid.Gossip.Received.Min, "gossip_spread")
		b.ReportMetric(mid.Maodv.Received.Max-mid.Maodv.Received.Min, "maodv_spread")
	}
}

// BenchmarkFig2RangeSweepSlowSpeed reproduces paper Fig. 2: packet
// delivery vs transmission range at max speed 0.2 m/s.
func BenchmarkFig2RangeSweepSlowSpeed(b *testing.B) {
	runFigure(b, "Fig 2: delivery vs range, speed 0.2 m/s", "range(m)",
		scenario.Fig2Xs(), scenario.ApplyFig2)
}

// BenchmarkFig3RangeSweepFastSpeed reproduces paper Fig. 3: packet
// delivery vs transmission range at max speed 2 m/s.
func BenchmarkFig3RangeSweepFastSpeed(b *testing.B) {
	runFigure(b, "Fig 3: delivery vs range, speed 2 m/s", "range(m)",
		scenario.Fig3Xs(), scenario.ApplyFig3)
}

// BenchmarkFig4SpeedSweepLow reproduces paper Fig. 4: packet delivery vs
// maximum speed 0.1..1.0 m/s at 75 m range.
func BenchmarkFig4SpeedSweepLow(b *testing.B) {
	runFigure(b, "Fig 4: delivery vs speed 0.1-1.0 m/s", "speed(m/s)",
		scenario.Fig4Xs(), scenario.ApplyFig4And5)
}

// BenchmarkFig5SpeedSweepHigh reproduces paper Fig. 5: packet delivery
// vs maximum speed 1..10 m/s at 75 m range.
func BenchmarkFig5SpeedSweepHigh(b *testing.B) {
	runFigure(b, "Fig 5: delivery vs speed 1-10 m/s", "speed(m/s)",
		scenario.Fig5Xs(), scenario.ApplyFig4And5)
}

// BenchmarkFig6NodeSweepConstantDegree reproduces paper Fig. 6: packet
// delivery vs node count with range scaled to hold mean degree constant.
func BenchmarkFig6NodeSweepConstantDegree(b *testing.B) {
	runFigure(b, "Fig 6: delivery vs nodes, constant degree", "nodes",
		scenario.Fig6Xs(), scenario.ApplyFig6)
}

// BenchmarkFig7NodeSweepFixedRange reproduces paper Fig. 7: packet
// delivery vs node count at a fixed 55 m range.
func BenchmarkFig7NodeSweepFixedRange(b *testing.B) {
	runFigure(b, "Fig 7: delivery vs nodes, 55 m range", "nodes",
		scenario.Fig7Xs(), scenario.ApplyFig7)
}

// BenchmarkFig8Goodput reproduces paper Fig. 8: per-member goodput for
// the four (range, speed) cases.
func BenchmarkFig8Goodput(b *testing.B) {
	base := scenario.DefaultConfig()
	seeds := benchSeeds()
	for i := 0; i < b.N; i++ {
		fmt.Printf("\n--- Fig 8: goodput at group members (%d seeds) ---\n", len(seeds))
		fmt.Printf("%-16s | %9s %8s %8s\n", "case", "mean", "min", "max")
		var last scenario.GoodputRow
		for _, gc := range scenario.Fig8Cases() {
			row, err := scenario.RunGoodput(base, gc, seeds, 0)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%4.0fm, %3.1f m/s   | %8.2f%% %7.2f%% %7.2f%%\n",
				gc.TxRange, gc.MaxSpeed, row.Summary.Mean, row.Summary.Min, row.Summary.Max)
			last = row
		}
		b.ReportMetric(last.Summary.Mean, "goodput_%")
	}
}

// --- ablations (DESIGN.md A1-A5) ---

// ablationConfig is a mid-loss operating point where gossip recovery
// does real work: 55 m range, 1 m/s.
func ablationConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.TxRange = 55
	cfg.MaxSpeed = 1
	return cfg
}

func runVariants(b *testing.B, title string, names []string, cfgs []scenario.Config) {
	b.Helper()
	seeds := benchSeeds()
	for i := 0; i < b.N; i++ {
		fmt.Printf("\n--- %s (%d seeds) ---\n", title, len(seeds))
		fmt.Printf("%-28s | %10s %8s %8s | %8s\n", "variant", "mean", "min", "max", "goodput")
		for k, cfg := range cfgs {
			results, err := scenario.RunSeeds(cfg, seeds, 0)
			if err != nil {
				b.Fatal(err)
			}
			agg := scenario.AggregateResults(results)
			fmt.Printf("%-28s | %10.1f %8.0f %8.0f | %7.1f%%\n",
				names[k], agg.Received.Mean, agg.Received.Min, agg.Received.Max, agg.Goodput)
			b.ReportMetric(agg.Received.Mean, fmt.Sprintf("v%d_pkts", k))
		}
	}
}

// BenchmarkAblationLocality compares the nearest-member-weighted walk
// (paper §4.2) against an unweighted walk (A1).
func BenchmarkAblationLocality(b *testing.B) {
	with := ablationConfig()
	without := ablationConfig()
	without.Gossip.LocalityBias = false
	runVariants(b, "A1: locality of gossip",
		[]string{"nearest-member weighting", "uniform next-hop walk"},
		[]scenario.Config{with, without})
}

// BenchmarkAblationMemberCache compares the paper's mixed anonymous +
// cached gossip against pure anonymous gossip (A2).
func BenchmarkAblationMemberCache(b *testing.B) {
	mixed := ablationConfig()
	anonOnly := ablationConfig()
	anonOnly.Gossip.PAnon = 1
	runVariants(b, "A2: cached gossip",
		[]string{"panon=0.7 (cached mix)", "panon=1.0 (walks only)"},
		[]scenario.Config{mixed, anonOnly})
}

// BenchmarkAblationGossipRate sweeps the gossip interval (paper §5.5's
// rate-tuning guidance, A3).
func BenchmarkAblationGossipRate(b *testing.B) {
	intervals := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second}
	names := make([]string, len(intervals))
	cfgs := make([]scenario.Config, len(intervals))
	for i, iv := range intervals {
		cfgs[i] = ablationConfig()
		cfgs[i].Gossip.Interval = iv
		names[i] = fmt.Sprintf("interval %v", iv)
	}
	runVariants(b, "A3: gossip rate", names, cfgs)
}

// BenchmarkAblationHistorySize sweeps the history table capacity (paper
// §5.5 names it a key parameter, A4).
func BenchmarkAblationHistorySize(b *testing.B) {
	sizes := []int{25, 50, 100, 200, 400}
	names := make([]string, len(sizes))
	cfgs := make([]scenario.Config, len(sizes))
	for i, s := range sizes {
		cfgs[i] = ablationConfig()
		cfgs[i].Gossip.HistoryCap = s
		names[i] = fmt.Sprintf("history %d msgs", s)
	}
	runVariants(b, "A4: history table size", names, cfgs)
}

// BenchmarkAblationFloodingBaseline compares MAODV, MAODV+AG and plain
// flooding (related work [13], A5).
func BenchmarkAblationFloodingBaseline(b *testing.B) {
	gossipCfg := ablationConfig()
	maodvCfg := ablationConfig()
	maodvCfg.Stack = anongossip.StackSpec{Routing: "maodv"}
	floodCfg := ablationConfig()
	floodCfg.Stack = anongossip.StackSpec{Routing: "flood"}
	runVariants(b, "A5: protocol baselines",
		[]string{"MAODV+AG", "MAODV", "Flooding"},
		[]scenario.Config{gossipCfg, maodvCfg, floodCfg})
}

// BenchmarkAblationPushPull compares the paper's pull exchange against
// the push alternative its §4.4 rejects (A6). Pull should show higher
// goodput: only solicited packets flow.
func BenchmarkAblationPushPull(b *testing.B) {
	pull := ablationConfig()
	push := ablationConfig()
	push.Gossip.Mode = gossip.ModePush
	runVariants(b, "A6: push vs pull exchange",
		[]string{"pull (paper)", "push"},
		[]scenario.Config{pull, push})
}

// BenchmarkAblationRTSCTS toggles the MAC's RTS/CTS handshake (A7): the
// paper ran 802.11 without it for 64-byte payloads; this quantifies what
// the handshake would change at the congested 55 m operating point.
func BenchmarkAblationRTSCTS(b *testing.B) {
	off := ablationConfig()
	on := ablationConfig()
	on.MAC.RTSThreshold = 0
	runVariants(b, "A7: RTS/CTS handshake",
		[]string{"no RTS/CTS (paper)", "RTS/CTS for all unicast"},
		[]scenario.Config{off, on})
}

// BenchmarkSingleRun measures the cost of one paper-baseline simulation
// (simulator performance, not a paper figure).
func BenchmarkSingleRun(b *testing.B) {
	cfg := anongossip.DefaultConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := anongossip.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events")
	}
}

// --- large-scale family (beyond the paper; see EXPERIMENTS.md §L) ---

// benchScenario runs cfg once per iteration, a fresh seed each time,
// and reports the run's size next to ns/op: simulator performance, not
// a protocol result.
func benchScenario(b *testing.B, cfg scenario.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events")
		b.ReportMetric(100*res.DeliveryRatio(), "delivery_%")
		b.ReportMetric(res.MeanDegree, "degree")
	}
}

func benchLargeScale(b *testing.B, nodes int, duration time.Duration) {
	b.Helper()
	benchScenario(b, scenario.ShortenedData(scenario.LargeScaleConfig(nodes), duration))
}

func BenchmarkLargeScale250Grid(b *testing.B)  { benchLargeScale(b, 250, 60*time.Second) }
func BenchmarkLargeScale500Grid(b *testing.B)  { benchLargeScale(b, 500, 45*time.Second) }
func BenchmarkLargeScale1000Grid(b *testing.B) { benchLargeScale(b, 1000, 30*time.Second) }

// The 10k-node point simulates ~66M events per iteration, so run it
// with -benchtime=1x; it exists for explicit before/after profiling,
// not for CI timing.
func BenchmarkLargeScale10000Grid(b *testing.B) { benchLargeScale(b, 10000, 10*time.Second) }

// --- dense-traffic family (beyond the paper; see EXPERIMENTS.md §D) ---

// benchDense runs one dense-traffic simulation per iteration: tens of
// neighbours per node and five concurrent senders put many frames in
// every neighbourhood, the regime where reception bookkeeping
// dominates.
func benchDense(b *testing.B, nodes int, degree float64, duration time.Duration) {
	b.Helper()
	benchScenario(b, scenario.ShortenedData(scenario.DenseConfig(nodes, degree), duration))
}

func BenchmarkDense250Deg40(b *testing.B) { benchDense(b, 250, 40, 30*time.Second) }
func BenchmarkDense500Deg60(b *testing.B) { benchDense(b, 500, 60, 20*time.Second) }

// BenchmarkLargeScaleDelivery prints the delivery table for the family
// (Gossip vs MAODV), the scale analogue of the paper's Fig. 6. The
// default covers 100 and 250 nodes at a shortened duration;
// AG_BENCH_FULL=1 extends to 500 and 1000.
func BenchmarkLargeScaleDelivery(b *testing.B) {
	xs := []float64{100, 250}
	duration := 120 * time.Second
	if os.Getenv("AG_BENCH_FULL") != "" {
		xs = scenario.LargeScaleXs()
		duration = 300 * time.Second
	}
	base := scenario.ShortenedData(scenario.DefaultConfig(), duration)
	seeds := scenario.Seeds(1)
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RunComparison(base, xs, scenario.ApplyLargeScale, seeds, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n--- Large scale: delivery vs nodes, constant density (%v per run) ---\n", duration)
		fmt.Printf("%-10s | %26s | %26s\n", "nodes", "Gossip mean [min,max]", "Maodv mean [min,max]")
		for _, r := range rows {
			fmt.Printf("%-10.0f | %8.1f [%6.0f,%6.0f] | %8.1f [%6.0f,%6.0f]\n",
				r.X,
				r.Gossip.Received.Mean, r.Gossip.Received.Min, r.Gossip.Received.Max,
				r.Maodv.Received.Mean, r.Maodv.Received.Min, r.Maodv.Received.Max)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Gossip.Received.Mean, "gossip_pkts")
		b.ReportMetric(last.Maodv.Received.Mean, "maodv_pkts")
	}
}
