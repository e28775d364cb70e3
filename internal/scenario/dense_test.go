package scenario

import (
	"math"
	"testing"
	"time"
)

// TestDenseFamilyGeometry checks the family's defining invariant: the
// field is sized so the expected mean degree at the paper's 75 m range
// hits the sweep target for the configured node count, with multiple
// concurrent senders.
func TestDenseFamilyGeometry(t *testing.T) {
	xs := sweep(t, "dense").Xs
	for _, nodes := range []int{250, 500, 1000} {
		for _, degree := range xs {
			cfg := DenseConfig(nodes, degree)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("n=%d degree=%v: invalid config: %v", nodes, degree, err)
			}
			if cfg.TxRange != 75 {
				t.Fatalf("n=%d degree=%v: range %v, want the paper's 75 m", nodes, degree, cfg.TxRange)
			}
			if cfg.NumSources != DenseSources {
				t.Fatalf("n=%d degree=%v: %d sources, want %d", nodes, degree, cfg.NumSources, DenseSources)
			}
			if cfg.Area.W != cfg.Area.H {
				t.Fatalf("n=%d degree=%v: non-square field %+v", nodes, degree, cfg.Area)
			}
			// Expected degree of a uniform deployment, ignoring edge
			// effects: n·πr²/A.
			expected := float64(cfg.Nodes) * math.Pi * cfg.TxRange * cfg.TxRange / cfg.Area.Area()
			if math.Abs(expected-degree)/degree > 1e-9 {
				t.Fatalf("n=%d: field sized for degree %v, want %v", nodes, expected, degree)
			}
		}
	}
	// Denser points must shrink the field, not grow it.
	for i := 1; i < len(xs); i++ {
		a := DenseConfig(250, xs[i]).Area.Area()
		b := DenseConfig(250, xs[i-1]).Area.Area()
		if a >= b {
			t.Fatalf("degree %v field (%v) not smaller than degree %v field (%v)", xs[i], a, xs[i-1], b)
		}
	}
}

// TestDenseRejectsBadDegree: a non-positive or NaN target degree must
// fail validation instead of yielding an infinite field that simulates
// silently.
func TestDenseRejectsBadDegree(t *testing.T) {
	for _, degree := range []float64{0, -5, math.NaN()} {
		if err := DenseConfig(250, degree).Validate(); err == nil {
			t.Fatalf("degree %v accepted, want a validation error", degree)
		}
	}
}

// TestDenseRunsDeliver sanity-checks the family end to end on three
// seeds: all five sources emit their full streams, the measured degree
// lands in the target's neighbourhood (below it — edge effects only
// subtract), and the packed network still delivers on every seed, not
// on one lucky one.
func TestDenseRunsDeliver(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := ShortenedData(DenseConfig(250, 20), 75*time.Second)
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Under dense load some source sends legitimately fail (queue
		// pressure at the sources is part of the workload), but the five
		// streams must still be substantially complete.
		max := DenseSources * cfg.ExpectedPackets()
		if res.Sent > max || res.Sent < max*9/10 {
			t.Fatalf("seed %d: sent %d packets, want within [%d, %d] (%d sources × %d)",
				seed, res.Sent, max*9/10, max, DenseSources, cfg.ExpectedPackets())
		}
		if res.MeanDegree < 10 || res.MeanDegree > 22 {
			t.Fatalf("seed %d: mean degree %.1f outside the degree-20 target band", seed, res.MeanDegree)
		}
		if ratio := res.DeliveryRatio(); ratio < 0.07 {
			t.Fatalf("seed %d: delivery ratio %.3f suspiciously low even for a loaded channel", seed, ratio)
		}
	}
}
