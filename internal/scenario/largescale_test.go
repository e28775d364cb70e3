package scenario

import (
	"math"
	"testing"
	"time"

	"anongossip/internal/stack"
)

// TestLargeScaleFamilyHoldsDensity checks the family's defining
// invariant: node density (and hence expected mean degree) stays at the
// 40-node baseline while the field grows with the node count and the
// range stays at the paper's 75 m.
func TestLargeScaleFamilyHoldsDensity(t *testing.T) {
	base := DefaultConfig()
	baseDensity := float64(base.Nodes) / base.Area.Area()
	large := sweep(t, "large")
	for _, x := range large.Xs {
		cfg := large.Apply(base, x)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("n=%v: invalid config: %v", x, err)
		}
		if cfg.TxRange != 75 {
			t.Fatalf("n=%v: range %v, want the paper's 75 m", x, cfg.TxRange)
		}
		density := float64(cfg.Nodes) / cfg.Area.Area()
		if math.Abs(density-baseDensity)/baseDensity > 0.01 {
			t.Fatalf("n=%v: density %v deviates from baseline %v", x, density, baseDensity)
		}
		if cfg.Area.W != cfg.Area.H {
			t.Fatalf("n=%v: non-square field %+v", x, cfg.Area)
		}
	}
}

func TestShortenedDataKeepsProportions(t *testing.T) {
	cfg := ShortenedData(DefaultConfig(), 120*time.Second)
	if cfg.Duration != 120*time.Second || cfg.DataStart != 24*time.Second || cfg.DataEnd != 80*time.Second {
		t.Fatalf("120 s reshape: start %v end %v", cfg.DataStart, cfg.DataEnd)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("reshaped config invalid: %v", err)
	}
	// Short runs collapse the fixed 40 s tail so a window survives.
	cfg = ShortenedData(DefaultConfig(), 30*time.Second)
	if cfg.DataEnd <= cfg.DataStart || cfg.DataEnd > cfg.Duration {
		t.Fatalf("30 s reshape: start %v end %v", cfg.DataStart, cfg.DataEnd)
	}
}

// TestLargeScaleRunsDeliver sanity-checks the smallest family member
// end to end: the scaled field stays connected enough for multicast to
// deliver a meaningful share of traffic.
func TestLargeScaleRunsDeliver(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the 250-node golden covers the family")
	}
	cfg := ShortenedData(LargeScaleConfig(100), 90*time.Second)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if ratio := res.DeliveryRatio(); ratio < 0.2 {
		t.Fatalf("delivery ratio %.2f suspiciously low for the 100-node member", ratio)
	}
	if res.MeanDegree < 5 || res.MeanDegree > 40 {
		t.Fatalf("mean degree %.1f outside the constant-density band", res.MeanDegree)
	}
}

// hugeHeapPerNode10k is the live heap per node after the 10k-node run of
// TestHugeMemoryPerNode, measured three times (6,192.2, 6,195.8 and
// 6,196.3) once sim.RNG streams became 16-byte PCGs; with a 4.8 KiB
// math/rand table per stream drawn from it read 22,065.
const hugeHeapPerNode10k = 6196.0

// TestHugeMemoryPerNode is the per-node memory check: the live heap
// after a 10k-node run is deterministic to four digits, so it must stay
// within 10% of the recorded footprint.
func TestHugeMemoryPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ShortenedData(HugeScaleConfig(10000), time.Second)
	cfg.Stack = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	res, err := RunSeeds(cfg, Seeds(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res[0].HeapLiveBytes) / float64(cfg.Nodes)
	if got <= 0 || got > 1.10*hugeHeapPerNode10k {
		t.Fatalf("heap bytes per node = %.1f, want in (0, %.1f]", got, 1.10*hugeHeapPerNode10k)
	}
	t.Logf("heap bytes per node %.1f (recorded %.1f)", got, hugeHeapPerNode10k)
}
