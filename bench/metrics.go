package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact metrics are simulated statistics: for a fixed seed they must
	// repeat bit for bit, so -compare tests them for equality.
	Exact bool `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the twelve end-to-end metrics. Every one is reported on
// every workload (the driver's contract); README.md gives the per-workload
// reading of each. Bounds are shares of the parent's median and were set
// from the spread of ten runs with ten different seeds, see README.md.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "mallocs_per_event", Unit: "count", Better: lower, Bound: 0.12},
	{Name: "heap_bytes_per_node", Unit: "B", Better: lower, Bound: 0.10},
	{Name: "delivery_ratio", Unit: "one_plus_ratio", Better: higher, Bound: 0.05, Exact: true},
	{Name: "gossip_gain", Unit: "one_plus_ratio", Better: higher, Bound: 0.25, Exact: true},
	{Name: "goodput_pct", Unit: "%", Better: higher, Bound: 0.15, Exact: true},
	{Name: "tx_bytes_per_delivery", Unit: "B", Better: lower, Bound: 0.25, Exact: true},
	{Name: "deliveries_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "deliver_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "deliver_p99_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// profiledLayers are the packages CPU and allocation samples are
// attributed to (directory names under anongossip/internal, with the two
// runtimes named by their own directory).
var profiledLayers = []string{
	"sim", "geom", "mobility", "radio", "mac", "node", "aodv", "maodv",
	"gossip", "flood", "pkt", "simrt", "netrt", "scenario",
}

const (
	layerGC    = "goruntime.gc"
	layerOther = "other"
)

// perLayer lists every per-layer metric of the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, l := range profiledLayers {
		out = append(out,
			metricDef{Name: l + ".cpu_s", Unit: "s", Better: lower},
			metricDef{Name: l + ".alloc_mb", Unit: "MB", Better: lower})
	}
	out = append(out,
		metricDef{Name: layerGC + ".cpu_s", Unit: "s", Better: lower},
		metricDef{Name: layerOther + ".cpu_s", Unit: "s", Better: lower})
	// Boundary counts, from public result fields.
	out = append(out,
		metricDef{Name: "sim.events_processed", Unit: "count", Better: lower},
		metricDef{Name: "sim.elided_share", Unit: "ratio", Better: higher},
		metricDef{Name: "radio.collisions_per_tx", Unit: "ratio", Better: lower},
		metricDef{Name: "mac.retries_per_attempt", Unit: "ratio", Better: lower},
		metricDef{Name: "mac.backoff_sim_s", Unit: "s", Better: lower},
		metricDef{Name: "mac.queue_depth_mean", Unit: "count", Better: lower},
		metricDef{Name: "mac.airtime_routing_share", Unit: "ratio", Better: lower},
		metricDef{Name: "mac.airtime_data_share", Unit: "ratio", Better: higher},
		metricDef{Name: "mac.airtime_gossip_share", Unit: "ratio", Better: lower},
		metricDef{Name: "gossip.rounds", Unit: "count", Better: lower},
		metricDef{Name: "gossip.replies", Unit: "count", Better: higher},
		metricDef{Name: "gossip.reply_new_share", Unit: "ratio", Better: higher},
		metricDef{Name: "gossip.recovered_share", Unit: "ratio", Better: higher},
		metricDef{Name: "node.control_bytes", Unit: "B", Better: lower},
		metricDef{Name: "node.payload_bytes", Unit: "B", Better: lower},
		metricDef{Name: "netrt.frames_in_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "netrt.frames_out_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "netrt.inbox_drops", Unit: "count", Better: lower},
		metricDef{Name: "netrt.filtered", Unit: "count", Better: lower},
		metricDef{Name: "netrt.malformed", Unit: "count", Better: lower},
		metricDef{Name: "netrt.send_errors", Unit: "count", Better: lower},
		metricDef{Name: "netrt.heap_bytes_per_node", Unit: "B", Better: lower},
	)
	// Driven spans: the harness calls each layer's public API directly.
	for _, n := range []string{
		"sim.hold_ns", "geom.grid_query_ns", "geom.grid_move_ns", "mobility.position_ns",
		"radio.starttx_ns", "radio.carrier_probe_ns",
		"mac.broadcast_cycle_ns", "mac.unicast_cycle_ns",
		"aodv.hello_rx_ns", "aodv.rreq_rx_ns", "aodv.nexthop_ns",
		"maodv.data_fwd_ns", "flood.data_rx_ns",
		"gossip.tree_data_ns", "gossip.round_ns", "gossip.request_rx_ns",
		"pkt.encode_ns", "pkt.decode_ns",
	} {
		out = append(out, metricDef{Name: n, Unit: "ns", Better: lower})
	}
	out = append(out,
		metricDef{Name: "radio.rx_per_tx", Unit: "count", Better: lower},
		metricDef{Name: "pkt.decode_allocs", Unit: "count", Better: lower},
		metricDef{Name: "netrt.do_rtt_us", Unit: "us", Better: lower},
		metricDef{Name: "netrt.loop_frames_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "scenario.build_s", Unit: "s", Better: lower},
		metricDef{Name: "bench.trace_overhead", Unit: "ratio", Better: lower},
	)
	return out
}

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a metric's distribution over passes.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}
