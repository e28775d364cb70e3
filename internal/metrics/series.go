// The windowed series: channel-utilization windows built by
// differencing cumulative counter readings at a fixed cadence. The
// readings come from the host (the scenario harness reads them between
// kernel slices), which keeps this package free of kernel dependencies.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Counters is one reading of a run's cumulative counters, or, inside a
// Window, what accrued during it.
type Counters struct {
	// ChannelCounters is the MACs' per-layer channel usage.
	ChannelCounters
	// Collisions is the medium's collision count.
	Collisions uint64
	// Delivered counts packets handed to protocol handlers.
	Delivered uint64
	// DataDelivered counts multicast payload deliveries to group
	// members — the delivery-progress series.
	DataDelivered uint64
	// GossipRounds counts recovery rounds initiated (anonymous +
	// cache-directed), GossipReplies the repair replies sent.
	GossipRounds  uint64
	GossipReplies uint64
	// MACTxAttempts / MACRetries / MACBackoff aggregate the MACs'
	// transmit attempts, retransmissions and accumulated contention
	// wait.
	MACTxAttempts uint64
	MACRetries    uint64
	MACBackoff    time.Duration
}

// Sub returns what accrued between the reading prev and c.
func (c Counters) Sub(prev Counters) Counters {
	for l := range c.AirtimeByLayer {
		c.AirtimeByLayer[l] -= prev.AirtimeByLayer[l]
		c.TxByLayer[l] -= prev.TxByLayer[l]
		c.BytesByLayer[l] -= prev.BytesByLayer[l]
	}
	c.Collisions -= prev.Collisions
	c.Delivered -= prev.Delivered
	c.DataDelivered -= prev.DataDelivered
	c.GossipRounds -= prev.GossipRounds
	c.GossipReplies -= prev.GossipReplies
	c.MACTxAttempts -= prev.MACTxAttempts
	c.MACRetries -= prev.MACRetries
	c.MACBackoff -= prev.MACBackoff
	return c
}

// Window is one sampled interval [Start, End): the counts accrued
// inside it plus the gauges observed at its end.
type Window struct {
	Start, End time.Duration
	Counters
	// InFlight is the number of transmissions on the air, QueueDepth
	// the total MAC transmit-queue backlog.
	InFlight   int
	QueueDepth int
}

// BusyFraction is the fraction of the window the channel was occupied:
// total transmission airtime over window length. Overlapping
// transmissions each count their full airtime, so saturated channels
// can exceed 1 — that excess is itself the signal (concurrent
// transmissions in collision range).
func (w Window) BusyFraction() float64 {
	d := w.End - w.Start
	if d <= 0 {
		return 0
	}
	return float64(w.TotalAirtime()) / float64(d)
}

// AirtimeShare is the layer's fraction of the window's total airtime
// (zero when the channel was idle all window).
func (w Window) AirtimeShare(l Layer) float64 {
	air := w.TotalAirtime()
	if air <= 0 {
		return 0
	}
	return float64(w.AirtimeByLayer[l]) / float64(air)
}

// Series is one run's consecutive windows.
type Series struct {
	// WindowLen is the configured sampling cadence.
	WindowLen time.Duration
	Windows   []Window
}

// windowJSON is the export shape of one window: durations in seconds,
// derived ratios precomputed, so downstream plotting needs no unit
// knowledge.
type windowJSON struct {
	Start         float64            `json:"start_s"`
	End           float64            `json:"end_s"`
	BusyFraction  float64            `json:"busy_fraction"`
	AirtimeShare  map[string]float64 `json:"airtime_share"`
	Tx            map[string]uint64  `json:"tx"`
	Collisions    uint64             `json:"collisions"`
	Delivered     uint64             `json:"delivered"`
	DataDelivered uint64             `json:"data_delivered"`
	GossipRounds  uint64             `json:"gossip_rounds"`
	GossipReplies uint64             `json:"gossip_replies"`
	MACTxAttempts uint64             `json:"mac_tx_attempts"`
	MACRetries    uint64             `json:"mac_retries"`
	MACBackoffS   float64            `json:"mac_backoff_s"`
	InFlight      int                `json:"in_flight"`
	QueueDepth    int                `json:"queue_depth"`
}

func (w Window) exportJSON() windowJSON {
	j := windowJSON{
		Start:         w.Start.Seconds(),
		End:           w.End.Seconds(),
		BusyFraction:  w.BusyFraction(),
		AirtimeShare:  make(map[string]float64, int(NumLayers)),
		Tx:            make(map[string]uint64, int(NumLayers)),
		Collisions:    w.Collisions,
		Delivered:     w.Delivered,
		DataDelivered: w.DataDelivered,
		GossipRounds:  w.GossipRounds,
		GossipReplies: w.GossipReplies,
		MACTxAttempts: w.MACTxAttempts,
		MACRetries:    w.MACRetries,
		MACBackoffS:   w.MACBackoff.Seconds(),
		InFlight:      w.InFlight,
		QueueDepth:    w.QueueDepth,
	}
	for l := Layer(0); l < NumLayers; l++ {
		j.AirtimeShare[l.String()] = w.AirtimeShare(l)
		j.Tx[l.String()] = w.TxByLayer[l]
	}
	return j
}

// MarshalJSON exports the window with derived ratios and second-based
// durations (see windowJSON).
func (w Window) MarshalJSON() ([]byte, error) {
	return json.Marshal(w.exportJSON())
}

// WriteTable renders the series as the fixed-width channel-utilization
// table the CLIs print: one row per window, stamped with its end, with
// the busy fraction, per-layer airtime shares and activity counters.
func (s Series) WriteTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %6s | %5s %5s %5s %5s | %7s %7s %7s %6s %6s\n",
		"t(s)", "busy", "mac", "route", "data", "gossip",
		"rounds", "deliv", "retry", "queue", "air")
	for _, win := range s.Windows {
		fmt.Fprintf(&b, "%7.0f %5.1f%% | %4.0f%% %4.0f%% %4.0f%% %4.0f%% | %7d %7d %7d %6d %6d\n",
			win.End.Seconds(), 100*win.BusyFraction(),
			100*win.AirtimeShare(LayerMAC), 100*win.AirtimeShare(LayerRouting),
			100*win.AirtimeShare(LayerData), 100*win.AirtimeShare(LayerGossip),
			win.GossipRounds, win.DataDelivered, win.MACRetries,
			win.QueueDepth, win.InFlight)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
