// The windowed sampler: a time series of channel-utilization windows
// built by differencing cumulative counter snapshots at a fixed
// cadence. The scheduling chain lives with the caller (the scenario
// harness arms one kernel timer per window); the sampler itself
// only diffs snapshots, which keeps this package free of kernel
// dependencies and usable from the live runtime's wall-clock timers
// too.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Snapshot is one cumulative reading of the run's counters, taken by
// the host-supplied closure at each window boundary. All counter
// fields are cumulative since the start of the run; the gauge fields
// (InFlight, QueueDepth) are instantaneous.
type Snapshot struct {
	// AirtimeByLayer / TxByLayer mirror ChannelCounters.
	AirtimeByLayer [NumLayers]time.Duration
	TxByLayer      [NumLayers]uint64
	// Collisions is the medium's cumulative collision count.
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
	// InFlight is the number of transmissions currently on the air.
	InFlight int
	// QueueDepth is the total MAC transmit-queue backlog.
	QueueDepth int
}

// Window is one sampled interval [Start, End): the counter deltas
// accrued inside it plus the gauges observed at its end.
type Window struct {
	Start, End time.Duration

	Airtime [NumLayers]time.Duration
	Tx      [NumLayers]uint64

	Collisions    uint64
	Delivered     uint64
	DataDelivered uint64
	GossipRounds  uint64
	GossipReplies uint64
	MACTxAttempts uint64
	MACRetries    uint64
	MACBackoff    time.Duration

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
	var air time.Duration
	for _, a := range w.Airtime {
		air += a
	}
	return float64(air) / float64(d)
}

// AirtimeShare is the layer's fraction of the window's total airtime
// (zero when the channel was idle all window).
func (w Window) AirtimeShare(l Layer) float64 {
	var air time.Duration
	for _, a := range w.Airtime {
		air += a
	}
	if air <= 0 {
		return 0
	}
	return float64(w.Airtime[l]) / float64(air)
}

// Series is the sampler's output: consecutive windows of one run.
type Series struct {
	// WindowLen is the configured sampling cadence.
	WindowLen time.Duration
	Windows   []Window
}

// Sampler builds a Series by differencing snapshots. The host arms a
// repeating timer at the window cadence and calls Tick from it.
type Sampler struct {
	snap func() Snapshot

	last   Snapshot
	lastAt time.Duration
	series Series
	fired  uint64
}

// NewSampler returns a sampler with the given cadence and snapshot
// source. The first window starts at time zero.
func NewSampler(window time.Duration, snap func() Snapshot) *Sampler {
	if window <= 0 {
		panic("metrics: sampler window must be positive")
	}
	return &Sampler{snap: snap, series: Series{WindowLen: window}}
}

// Tick closes the current window at `now`: it takes a snapshot, emits
// the delta window, and starts the next. The host calls it from the
// timer it armed (and once more at the horizon, if the final partial
// window should be kept).
func (s *Sampler) Tick(now time.Duration) {
	s.fired++
	cur := s.snap()
	if now <= s.lastAt {
		// A horizon flush landing exactly on a window boundary: nothing
		// accrued, nothing to emit.
		s.last = cur
		return
	}
	w := Window{Start: s.lastAt, End: now}
	for l := Layer(0); l < NumLayers; l++ {
		w.Airtime[l] = cur.AirtimeByLayer[l] - s.last.AirtimeByLayer[l]
		w.Tx[l] = cur.TxByLayer[l] - s.last.TxByLayer[l]
	}
	w.Collisions = cur.Collisions - s.last.Collisions
	w.Delivered = cur.Delivered - s.last.Delivered
	w.DataDelivered = cur.DataDelivered - s.last.DataDelivered
	w.GossipRounds = cur.GossipRounds - s.last.GossipRounds
	w.GossipReplies = cur.GossipReplies - s.last.GossipReplies
	w.MACTxAttempts = cur.MACTxAttempts - s.last.MACTxAttempts
	w.MACRetries = cur.MACRetries - s.last.MACRetries
	w.MACBackoff = cur.MACBackoff - s.last.MACBackoff
	w.InFlight = cur.InFlight
	w.QueueDepth = cur.QueueDepth
	s.series.Windows = append(s.series.Windows, w)
	s.last = cur
	s.lastAt = now
}

// Fired reports how many Tick calls have run. The scenario harness
// subtracts it from the kernel's processed-event count so
// Result.Events stays bit-identical with sampling on or off (the
// sampler's timer chain is real scheduler events, but they are
// measurement, not simulation).
func (s *Sampler) Fired() uint64 { return s.fired }

// Series returns the windows emitted so far. The slice is the
// sampler's own; callers must not mutate it while ticks may still run.
func (s *Sampler) Series() Series { return s.series }

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
		j.Tx[l.String()] = w.Tx[l]
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

// WriteCSV renders the series as a flat CSV table, one row per window,
// with a header row. The layer columns are expanded per layer so the
// file loads straight into a plotting tool.
func (s Series) WriteCSV(w io.Writer) error {
	cols := []string{"start_s", "end_s", "busy_fraction"}
	for l := Layer(0); l < NumLayers; l++ {
		cols = append(cols, "airtime_share_"+l.String(), "tx_"+l.String())
	}
	cols = append(cols, "collisions", "delivered", "data_delivered",
		"gossip_rounds", "gossip_replies", "mac_tx_attempts", "mac_retries",
		"mac_backoff_s", "in_flight", "queue_depth")
	var b strings.Builder
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, win := range s.Windows {
		fmt.Fprintf(&b, "%.3f,%.3f,%.4f", win.Start.Seconds(), win.End.Seconds(), win.BusyFraction())
		for l := Layer(0); l < NumLayers; l++ {
			fmt.Fprintf(&b, ",%.4f,%d", win.AirtimeShare(l), win.Tx[l])
		}
		fmt.Fprintf(&b, ",%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d\n",
			win.Collisions, win.Delivered, win.DataDelivered,
			win.GossipRounds, win.GossipReplies, win.MACTxAttempts, win.MACRetries,
			win.MACBackoff.Seconds(), win.InFlight, win.QueueDepth)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
