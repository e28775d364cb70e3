// Benchmark harness: one benchmark per paper table/figure and per
// ablation sweep (the sweeps of scenario.Sweeps, DESIGN.md §3). Each
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
	"os"
	"strings"
	"testing"
	"time"

	"anongossip"
	"anongossip/internal/scenario"
)

func benchSeeds() []int64 {
	if os.Getenv("AG_BENCH_FULL") != "" {
		return scenario.Seeds(10)
	}
	return scenario.Seeds(2)
}

// BenchmarkFigures reproduces the paper's Figs. 2–7 and the ablations
// A2–A4, one sub-benchmark per sweep of scenario.Sweeps
// (BenchmarkFigures/2 … /7, /a2 … /a4): it prints each sweep's
// comparison table and reports the mid-sweep means.
func BenchmarkFigures(b *testing.B) {
	base := scenario.DefaultConfig()
	seeds := benchSeeds()
	for _, s := range scenario.Sweeps() {
		if !s.Paper() && !strings.HasPrefix(s.ID, "a") {
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
