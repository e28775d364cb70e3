package scenario

import (
	"reflect"
	"testing"
	"time"

	"anongossip/internal/metrics"
	"anongossip/internal/stack"
)

// TestMetricsObserveOnlyBitIdentical is the acceptance test of the
// telemetry layer's observe-only contract: sampling must leave every
// result field but Metrics — member outcomes, byte counters, channel
// totals, latencies, the logical event total, and its processed/elided
// breakdown — bit identical. Sampling slices the kernel's run and reads
// between slices; it schedules nothing.
func TestMetricsObserveOnlyBitIdentical(t *testing.T) {
	cfg := goldenConfig()
	cfg.Stack = maodvAG
	cfg.Seed = 3

	off, err := Run(cfg)
	if err != nil {
		t.Fatalf("off: %v", err)
	}
	// A cadence that does not divide the duration, so the final window
	// is partial.
	cfg.MetricsWindow = 7 * time.Second
	on, err := Run(cfg)
	if err != nil {
		t.Fatalf("on: %v", err)
	}

	if on.Metrics == nil || len(on.Metrics.Windows) == 0 {
		t.Fatal("sampling enabled but no windows collected")
	}
	if off.Channel == nil || off.Channel.TotalTx() == 0 {
		t.Fatal("no channel activity counted on an unsampled run")
	}
	clean := *on
	clean.Metrics = nil
	if !reflect.DeepEqual(&clean, off) {
		t.Fatalf("sampling changed the result:\noff: %+v\non:  %+v", off, &clean)
	}
}

// TestEventBreakdownSums: on every stack, the logical event total is
// exactly the executed kernel events plus the three elision counts, and
// slicing the run into metrics windows leaves EventsProcessed as it is.
func TestEventBreakdownSums(t *testing.T) {
	for _, spec := range stack.Stacks() {
		var processed []uint64
		for _, window := range []time.Duration{0, 10 * time.Second} {
			cfg := goldenConfig()
			cfg.Stack, cfg.Seed, cfg.MetricsWindow = spec, 1, window
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v window=%v: %v", spec, window, err)
			}
			if sum := r.EventsProcessed + r.ElidedKernel + r.ElidedRadio + r.ElidedMAC; r.Events != sum {
				t.Errorf("%v window=%v: events %d != processed %d + elided %d+%d+%d",
					spec, window, r.Events, r.EventsProcessed, r.ElidedKernel, r.ElidedRadio, r.ElidedMAC)
			}
			processed = append(processed, r.EventsProcessed)
		}
		if processed[0] != processed[1] {
			t.Errorf("%v: events processed %d unsampled, %d sampled", spec, processed[0], processed[1])
		}
	}
}

// TestMetricsSeriesShape sanity-checks the collected series on one run:
// windows tile [0, Duration] without gaps, the channel shows activity
// once the CBR stream starts, the per-window data-delivery deltas sum
// to the cumulative total, and the per-layer Tx and Airtime deltas sum
// exactly to Result.Channel.
func TestMetricsSeriesShape(t *testing.T) {
	cfg := goldenConfig()
	cfg.Stack = maodvAG
	cfg.Seed = 2
	cfg.MetricsWindow = 10 * time.Second

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wins := res.Metrics.Windows
	if len(wins) == 0 {
		t.Fatal("no windows collected")
	}
	prev := time.Duration(0)
	var delivered uint64
	var busyAfterStart bool
	var channel metrics.ChannelCounters
	var attempts uint64
	for _, w := range wins {
		channel.Add(w.ChannelCounters)
		attempts += w.MACTxAttempts
		if w.Start != prev {
			t.Fatalf("window gap: starts at %v, previous ended at %v", w.Start, prev)
		}
		if w.End <= w.Start {
			t.Fatalf("degenerate window [%v, %v)", w.Start, w.End)
		}
		prev = w.End
		delivered += w.DataDelivered
		if w.Start >= cfg.DataStart && w.BusyFraction() > 0 {
			busyAfterStart = true
		}
	}
	if prev != cfg.Duration {
		t.Fatalf("series ends at %v, want %v", prev, cfg.Duration)
	}
	if !busyAfterStart {
		t.Fatal("channel never busy after the CBR stream started")
	}
	var total uint64
	for _, m := range res.Members {
		total += uint64(m.Received)
	}
	if delivered != total {
		t.Fatalf("windowed delivery deltas sum to %d, members received %d", delivered, total)
	}
	if channel.TxByLayer != res.Channel.TxByLayer || channel.AirtimeByLayer != res.Channel.AirtimeByLayer {
		t.Fatalf("windowed channel deltas sum to Tx %v Airtime %v, Result.Channel has Tx %v Airtime %v",
			channel.TxByLayer, channel.AirtimeByLayer, res.Channel.TxByLayer, res.Channel.AirtimeByLayer)
	}
	// A MAC transmit attempt is every transmission but an ACK.
	if want := res.Channel.TotalTx() - res.Channel.TxByLayer[metrics.LayerMAC]; attempts != want || attempts == 0 {
		t.Fatalf("windowed MAC attempts sum to %d, want the %d non-ACK transmissions", attempts, want)
	}
}
