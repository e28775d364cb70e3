// Package metrics is the unified telemetry layer: per-layer counters
// the protocol stack increments on its hot paths, a windowed time
// series built from counter readings the simulation harness takes
// between kernel slices, and a writer that renders metric families in
// Prometheus text format.
//
// The package is observe-only by contract (DESIGN.md §9): nothing in
// it schedules protocol events, draws randomness, or mutates protocol
// state, so collection never changes a simulation result — the golden
// digests stay bit-identical with sampling on or off. Hot paths pay
// for it with plain uint64 field increments (zero allocations, no
// atomics): the simulator is single-threaded, so every writer owns its
// counter. The live runtime (runtime/netrt) instead samples its
// engines' counters through each node's Do serializer, keeping the
// same engines instrumentation-free.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"anongossip/internal/pkt"
)

// Layer attributes channel usage to the protocol layer that caused it.
type Layer uint8

// Layers, in rendering order.
const (
	// LayerMAC is link-level control: ACK frames.
	LayerMAC Layer = iota
	// LayerRouting is routing-protocol control traffic (hello, route
	// request/reply/error, multicast tree maintenance, join floods).
	LayerRouting
	// LayerData is multicast payload traffic.
	LayerData
	// LayerGossip is the anonymous-gossip recovery layer's traffic:
	// gossip requests and the data retransmissions they trigger.
	LayerGossip
	// NumLayers sizes per-layer arrays.
	NumLayers
)

// String names the layer as the export labels spell it.
func (l Layer) String() string {
	switch l {
	case LayerMAC:
		return "mac"
	case LayerRouting:
		return "routing"
	case LayerData:
		return "data"
	case LayerGossip:
		return "gossip"
	default:
		return fmt.Sprintf("layer(%d)", uint8(l))
	}
}

// LayerOf classifies a network-layer packet kind. MAC-level frames
// (ACKs) never appear as packet kinds; the MAC attributes them to
// LayerMAC directly.
func LayerOf(k pkt.Kind) Layer {
	switch k {
	case pkt.KindData:
		return LayerData
	case pkt.KindGossipReq, pkt.KindGossipRep:
		return LayerGossip
	default:
		return LayerRouting
	}
}

// ChannelCounters accumulates per-layer channel usage: every
// transmission's airtime, count and bytes, attributed to the layer
// whose packet (or control frame) occupied the channel. Each MAC keeps
// one in its stats; the harness sums them.
//
// Concurrency contract: fields are plain integers, not atomics; every
// write site is a transmission start and every read lies between
// kernel slices, both on the simulation's one goroutine.
type ChannelCounters struct {
	// AirtimeByLayer is the cumulative channel occupancy per layer.
	AirtimeByLayer [NumLayers]time.Duration
	// TxByLayer counts transmissions started per layer.
	TxByLayer [NumLayers]uint64
	// BytesByLayer sums the wire sizes transmitted per layer.
	BytesByLayer [NumLayers]uint64
}

// ObserveTx records one started transmission. It is the hot-path write
// and must stay allocation-free (metrics_test.go asserts 0 allocs/op).
func (c *ChannelCounters) ObserveTx(l Layer, airtime time.Duration, bytes int) {
	c.AirtimeByLayer[l] += airtime
	c.TxByLayer[l]++
	c.BytesByLayer[l] += uint64(bytes)
}

// Add adds o's counts to c.
func (c *ChannelCounters) Add(o ChannelCounters) {
	for l := range c.AirtimeByLayer {
		c.AirtimeByLayer[l] += o.AirtimeByLayer[l]
		c.TxByLayer[l] += o.TxByLayer[l]
		c.BytesByLayer[l] += o.BytesByLayer[l]
	}
}

// TotalAirtime sums channel occupancy over all layers.
func (c *ChannelCounters) TotalAirtime() time.Duration {
	var t time.Duration
	for _, a := range c.AirtimeByLayer {
		t += a
	}
	return t
}

// TotalTx sums transmissions over all layers.
func (c *ChannelCounters) TotalTx() uint64 {
	var n uint64
	for _, v := range c.TxByLayer {
		n += v
	}
	return n
}

// Sample is one exported time-series point: the value of its family's
// label and a number.
type Sample struct {
	LabelValue string
	Value      float64
}

// Family is one metric family ready to render: a name, help text,
// whether it is a point-in-time gauge rather than a monotonically
// increasing counter, the name of the one label its samples carry ("" for
// none), and its current samples.
type Family struct {
	Name, Help string
	Gauge      bool
	Label      string
	Samples    []Sample
}

// WritePrometheus renders families in the Prometheus text exposition
// format (version 0.0.4), in the order given, so two scrapes of
// unchanged state are byte-identical. The writer is hand-rolled — the
// repo takes no dependency on a client library — and covers the subset
// in use: HELP/TYPE headers, label escaping, and shortest-round-trip
// float formatting.
func WritePrometheus(w io.Writer, families []Family) error {
	var b strings.Builder
	for _, g := range families {
		if g.Help != "" {
			b.WriteString("# HELP ")
			b.WriteString(g.Name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(g.Help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(g.Name)
		if g.Gauge {
			b.WriteString(" gauge\n")
		} else {
			b.WriteString(" counter\n")
		}
		for _, s := range g.Samples {
			b.WriteString(g.Name)
			if g.Label != "" {
				b.WriteByte('{')
				b.WriteString(g.Label)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(s.LabelValue))
				b.WriteString(`"}`)
			}
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
