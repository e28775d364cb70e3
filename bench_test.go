// Benchmark harness: one benchmark per paper table/figure (the sweeps
// of scenario.Sweeps) plus the ablations listed in DESIGN.md §3. Each
// benchmark executes the full experiment sweep once per iteration and
// prints the same rows the paper's figure plots, so
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

// BenchmarkFigures reproduces the paper's Figs. 2–7, one sub-benchmark
// per sweep of scenario.Sweeps (BenchmarkFigures/2 … /7): it prints each
// figure's comparison table and reports the mid-sweep means.
func BenchmarkFigures(b *testing.B) {
	base := scenario.DefaultConfig()
	seeds := benchSeeds()
	for _, s := range scenario.Sweeps() {
		if !s.Paper() {
			continue
		}
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := scenario.RunComparison(base, s.Xs, s.Apply, seeds, 0)
				if err != nil {
					b.Fatal(err)
				}
				scenario.PrintComparison(os.Stdout, s, base, len(seeds), rows)
				mid := rows[len(rows)/2]
				b.ReportMetric(mid.Gossip.Received.Mean, "gossip_pkts")
				b.ReportMetric(mid.Maodv.Received.Mean, "maodv_pkts")
				b.ReportMetric(mid.Gossip.Received.Max-mid.Gossip.Received.Min, "gossip_spread")
				b.ReportMetric(mid.Maodv.Received.Max-mid.Maodv.Received.Min, "maodv_spread")
			}
		})
	}
}

// BenchmarkFig8Goodput reproduces paper Fig. 8: per-member goodput for
// the four (range, speed) cases.
func BenchmarkFig8Goodput(b *testing.B) {
	base := scenario.DefaultConfig()
	seeds := benchSeeds()
	for i := 0; i < b.N; i++ {
		var rows []scenario.GoodputRow
		for _, gc := range scenario.Fig8Cases() {
			row, err := scenario.RunGoodput(base, gc, seeds, 0)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
		scenario.PrintGoodput(os.Stdout, rows)
		b.ReportMetric(rows[len(rows)-1].Summary.Mean, "goodput_%")
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
	var large scenario.Sweep
	for _, s := range scenario.Sweeps() {
		if s.ID == "large" {
			large = s
		}
	}
	duration := 300 * time.Second
	if os.Getenv("AG_BENCH_FULL") == "" {
		large.Xs, duration = large.Xs[:2], 120*time.Second
	}
	base := scenario.ShortenedData(scenario.DefaultConfig(), duration)
	seeds := scenario.Seeds(1)
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RunComparison(base, large.Xs, large.Apply, seeds, 0)
		if err != nil {
			b.Fatal(err)
		}
		scenario.PrintComparison(os.Stdout, large, base, len(seeds), rows)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Gossip.Received.Mean, "gossip_pkts")
		b.ReportMetric(last.Maodv.Received.Mean, "maodv_pkts")
	}
}
