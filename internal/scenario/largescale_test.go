package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// TestLargeScaleFamilyHoldsDensity checks the family's defining
// invariant: node density (and hence expected mean degree) stays at the
// 40-node baseline while the field grows with the node count and the
// range stays at the paper's 75 m.
func TestLargeScaleFamilyHoldsDensity(t *testing.T) {
	base := DefaultConfig()
	baseDensity := float64(base.Nodes) / base.Area.Area()
	for _, x := range LargeScaleXs() {
		cfg := ApplyLargeScale(base, x)
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

// TestLargeScale250GridBruteBitIdentical is the determinism acceptance
// test for the neighbour-index refactor: a 250-node run must produce
// bit-identical results — every member count, latency, byte counter and
// the event total — whether the radio uses the spatial grid or the
// brute-force scan. Short mode trims the simulated time, not the node
// count, so CI still exercises the 250-node grid geometry.
func TestLargeScale250GridBruteBitIdentical(t *testing.T) {
	duration := 60 * time.Second
	if testing.Short() {
		duration = 20 * time.Second
	}
	cfg := ShortenedData(LargeScaleConfig(250), duration)
	cfg.Seed = 11

	cfg.RadioIndex = radio.IndexGrid
	grid, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RadioIndex = radio.IndexBrute
	brute, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, brute) {
		t.Fatalf("grid and brute runs diverged:\ngrid:  %+v\nbrute: %+v", grid, brute)
	}
	if grid.Sent == 0 || grid.Received.Mean == 0 {
		t.Fatalf("degenerate run: sent %d, mean received %v", grid.Sent, grid.Received.Mean)
	}
}

// TestLargeScaleQueueQuadRefBitIdentical is the determinism acceptance
// test for the event-queue implementations: large-scale runs must
// produce bit-identical results — every member count, latency, byte
// counter and the event total — whether the kernel orders events with
// the pooled 4-ary heap, the calendar/bucket queue, or the
// container/heap reference. The 250-node set runs always (short mode
// trims simulated time, not node count); the 500-node set is full-mode
// only.
func TestLargeScaleQueueQuadRefBitIdentical(t *testing.T) {
	cases := []struct {
		nodes    int
		duration time.Duration
		seed     int64
	}{
		{250, 60 * time.Second, 11},
		{500, 24 * time.Second, 7},
	}
	if testing.Short() {
		cases = cases[:1]
		cases[0].duration = 20 * time.Second
	}
	for _, tc := range cases {
		cfg := ShortenedData(LargeScaleConfig(tc.nodes), tc.duration)
		cfg.Seed = tc.seed

		cfg.EventQueue = sim.QueueQuad
		quad, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []sim.QueueKind{sim.QueueCal, sim.QueueRef} {
			cfg.EventQueue = kind
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%d nodes %v: %v", tc.nodes, kind, err)
			}
			if !reflect.DeepEqual(quad, res) {
				t.Fatalf("%d nodes: quad and %v queue runs diverged:\nquad: %+v\n%v:  %+v",
					tc.nodes, kind, quad, kind, res)
			}
		}
		if quad.Sent == 0 || quad.Received.Mean == 0 {
			t.Fatalf("%d nodes: degenerate run: sent %d, mean received %v", tc.nodes, quad.Sent, quad.Received.Mean)
		}
	}
}

// TestLargeScale250RxModelIndexMatrixBitIdentical is the determinism
// acceptance test for the reception-path refactor: a 250-node run must
// produce bit-identical results — every member count, latency, byte
// counter and the logical event total — across all four reception-model
// × neighbour-index combinations. Short mode trims the simulated time,
// not the node count.
func TestLargeScale250RxModelIndexMatrixBitIdentical(t *testing.T) {
	duration := 40 * time.Second
	if testing.Short() {
		duration = 16 * time.Second
	}
	cfg := ShortenedData(LargeScaleConfig(250), duration)
	cfg.Seed = 13

	var ref *Result
	var refName string
	for _, model := range []radio.ReceptionModel{radio.ModelBatch, radio.ModelRef} {
		for _, index := range []radio.IndexKind{radio.IndexGrid, radio.IndexBrute} {
			name := model.String() + "/" + index.String()
			cfg.RxModel, cfg.RadioIndex = model, index
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ref == nil {
				ref, refName = res, name
				continue
			}
			if !reflect.DeepEqual(stripElisionBreakdown(res), stripElisionBreakdown(ref)) {
				t.Fatalf("%s diverged from %s:\n%s: %+v\n%s: %+v", name, refName, name, res, refName, ref)
			}
		}
	}
	if ref.Sent == 0 || ref.Received.Mean == 0 {
		t.Fatalf("degenerate run: sent %d, mean received %v", ref.Sent, ref.Received.Mean)
	}
}

// TestRxModelQueueMatrixBitIdentical crosses the reception-model and
// event-queue axes on the golden config: every combination must agree
// bit for bit on the same run.
func TestRxModelQueueMatrixBitIdentical(t *testing.T) {
	cfg := goldenConfig()
	cfg.Protocol = ProtocolGossip
	cfg.Seed = 3

	var ref *Result
	var refName string
	for _, model := range []radio.ReceptionModel{radio.ModelBatch, radio.ModelRef} {
		for _, queue := range []sim.QueueKind{sim.QueueQuad, sim.QueueCal, sim.QueueRef} {
			name := model.String() + "/" + queue.String()
			cfg.RxModel, cfg.EventQueue = model, queue
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ref == nil {
				ref, refName = res, name
				continue
			}
			if !reflect.DeepEqual(stripElisionBreakdown(res), stripElisionBreakdown(ref)) {
				t.Fatalf("%s diverged from %s:\n%s: %+v\n%s: %+v", name, refName, name, res, refName, ref)
			}
		}
	}
}

// TestBaselineGridBruteBitIdentical covers the paper's own operating
// point (40 nodes, mobile, full protocol stack) across two seeds.
func TestBaselineGridBruteBitIdentical(t *testing.T) {
	duration := 240 * time.Second
	if testing.Short() {
		duration = 120 * time.Second
	}
	for _, seed := range []int64{1, 5} {
		cfg := ShortenedData(DefaultConfig(), duration)
		cfg.Seed = seed
		cfg.RadioIndex = radio.IndexGrid
		grid, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RadioIndex = radio.IndexBrute
		brute, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grid, brute) {
			t.Fatalf("seed %d: grid and brute runs diverged", seed)
		}
	}
}

// TestLargeScaleRunsDeliver sanity-checks the smallest family member
// end to end: the scaled field stays connected enough for multicast to
// deliver a meaningful share of traffic.
func TestLargeScaleRunsDeliver(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by the 250-node determinism test")
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
