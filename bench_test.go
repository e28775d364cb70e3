// Simulator benchmarks: what one run costs, not what it delivers. They
// are the entry points for profiling a configuration,
//
//	go test -run '^$' -bench 'BenchmarkLargeScale10000Grid$' -benchtime 1x -memprofile mem.pprof
//
// and CI runs BenchmarkSingleRun and BenchmarkLargeScale1000Grid once as
// a smoke test. The paper's figures come from cmd/agbench; the gated
// cost ledger is bench/.
package anongossip_test

import (
	"testing"
	"time"

	"anongossip"
	"anongossip/internal/scenario"
)

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
