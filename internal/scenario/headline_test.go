package scenario

import (
	"testing"
	"time"
)

// TestPaperHeadlineFullScale runs the paper's exact baseline (600 s,
// 40 nodes, 75 m, 0.2 m/s) once per protocol and asserts the headline
// claims quantitatively. About 0.25 s wall time on a 2-core AMD EPYC
// host; skipped in -short runs.
func TestPaperHeadlineFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in short mode")
	}
	cfg := DefaultConfig()
	cfg.Seed = 1

	cfg.Stack = maodvAG
	g, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stack = bareMAODV
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if g.Sent != 2201 || m.Sent != 2201 {
		t.Fatalf("sent %d/%d packets, want the paper's 2201", g.Sent, m.Sent)
	}
	// Headline 1: gossip significantly improves delivery.
	if g.Received.Mean < m.Received.Mean*1.1 {
		t.Fatalf("gossip mean %.0f not significantly above maodv %.0f",
			g.Received.Mean, m.Received.Mean)
	}
	// Headline 2: gossip achieves high absolute delivery at 0.2 m/s.
	if ratio := g.DeliveryRatio(); ratio < 0.85 {
		t.Fatalf("gossip delivery ratio %.2f < 0.85 at the paper baseline", ratio)
	}
	// Headline 3: variation across members shrinks.
	if g.Received.Std >= m.Received.Std {
		t.Fatalf("gossip std %.1f >= maodv std %.1f", g.Received.Std, m.Received.Std)
	}
	// Headline 4 (§5.5): goodput near 100%.
	if gp := g.MeanGoodput(); gp < 95 {
		t.Fatalf("goodput %.1f%% < 95%%", gp)
	}
}

// TestPathologicalConfigs exercises failure injection: the stack must
// degrade, not crash, under hostile parameters.
func TestPathologicalConfigs(t *testing.T) {
	t.Run("fully partitioned", func(t *testing.T) {
		cfg := shortConfig()
		cfg.TxRange = 1 // nobody hears anybody
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Received.Mean != 0 {
			t.Fatalf("delivery %.1f in a fully partitioned network", res.Received.Mean)
		}
	})

	t.Run("zero gossip capacity", func(t *testing.T) {
		cfg := shortConfig()
		cfg.Gossip.HistoryCap = 0
		cfg.Gossip.LostTableCap = 0
		cfg.Gossip.CacheCap = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Gossip can't recover anything, but tree delivery still works.
		if res.Received.Mean <= 0 {
			t.Fatal("nothing delivered with zeroed gossip tables")
		}
	})

	t.Run("extreme speed", func(t *testing.T) {
		cfg := shortConfig()
		cfg.MaxSpeed = 50 // 180 km/h across a 200 m box
		cfg.MaxPause = 0
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("saturating data rate", func(t *testing.T) {
		cfg := shortConfig()
		cfg.DataInterval = 5 * time.Millisecond // 200 pkt/s
		cfg.DataStart = 30 * time.Second
		cfg.DataEnd = 40 * time.Second
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The channel cannot carry this for the whole tree: losses are
		// expected, crashes are not.
		if res.DeliveryRatio() > 1 {
			t.Fatalf("delivery ratio %v > 1", res.DeliveryRatio())
		}
	})
}
