package anongossip_test

import (
	"strings"
	"testing"
	"time"

	"anongossip"
)

// quickConfig trims the paper scenario for test speed.
func quickConfig() anongossip.Config {
	cfg := anongossip.DefaultConfig()
	cfg.Nodes = 20
	cfg.TxRange = 70
	cfg.Duration = 90 * time.Second
	cfg.DataStart = 30 * time.Second
	cfg.DataEnd = 80 * time.Second
	return cfg
}

func TestFacadeRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Seed = 5
	res, err := anongossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Received.Mean <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if r := res.DeliveryRatio(); r <= 0 || r > 1 {
		t.Fatalf("delivery ratio = %v", r)
	}
}

func TestFacadeProtocols(t *testing.T) {
	for _, name := range []string{"maodv+gossip", "maodv", "flood"} {
		spec, err := anongossip.StackByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig()
		cfg.Stack = spec
		if _, err := anongossip.Run(cfg); err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
	}
}

func TestFacadeSweep(t *testing.T) {
	s := anongossip.Sweep{ID: "range", Title: "delivery vs range", XName: "range(m)", Xs: []float64{70},
		Apply: func(c anongossip.Config, x float64) anongossip.Config {
			c.TxRange = x
			return c
		}}
	rows, err := anongossip.RunComparison(quickConfig(), s.Xs, s.Apply, anongossip.Seeds(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].Gossip.Received.Mean < rows[0].Maodv.Received.Mean {
		t.Logf("note: gossip below maodv at this tiny scale (%v vs %v)",
			rows[0].Gossip.Received.Mean, rows[0].Maodv.Received.Mean)
	}
	var out strings.Builder
	anongossip.PrintComparison(&out, s, quickConfig(), 1, rows)
	if !strings.Contains(out.String(), "=== delivery vs range ===") || !strings.Contains(out.String(), "\n70  ") {
		t.Fatalf("comparison table:\n%s", out.String())
	}
}

// TestFacadeSweeps: the facade lists the paper figures and every family.
func TestFacadeSweeps(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range anongossip.Sweeps() {
		ids[s.ID] = true
	}
	for _, id := range []string{"2", "7", "large", "dense", "a2", "a3", "a4"} {
		if !ids[id] {
			t.Fatalf("Sweeps lacks %q: %v", id, ids)
		}
	}
}

func TestSeeds(t *testing.T) {
	s := anongossip.Seeds(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seeds(3) = %v", s)
	}
}

func TestFacadeStackRegistry(t *testing.T) {
	stacks := anongossip.Stacks()
	if len(stacks) != 6 {
		t.Fatalf("stacks = %v, want 6", stacks)
	}
	names := anongossip.StackNames()
	if len(names) != len(stacks) {
		t.Fatalf("StackNames %v disagrees with Stacks %v", names, stacks)
	}

	spec, err := anongossip.StackByName("flood+gossip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Stack = spec
	res, err := anongossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack.String() != "flood+gossip" {
		t.Fatalf("result ran stack %v, want flood+gossip", res.Stack)
	}

	if _, err := anongossip.StackByName("smoke-signals"); err == nil {
		t.Fatal("unknown stack accepted")
	}
}
