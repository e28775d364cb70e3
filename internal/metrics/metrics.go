// Package metrics is the unified telemetry layer: per-layer counters
// the protocol stack increments on its hot paths, a windowed
// time-series sampler driven by the simulation scheduler, and a writer
// that renders metric families in Prometheus text format.
//
// The package is observe-only by contract (DESIGN.md §11): nothing in
// it schedules protocol events, draws randomness, or mutates protocol
// state, so enabling collection never changes a simulation result —
// the golden digests stay bit-identical with metrics on or off. Hot
// paths pay for it with plain uint64 field increments (zero
// allocations, no atomics): the simulator is single-threaded, so every
// writer owns its counter. The live runtime (runtime/netrt) instead
// samples its engines' counters through each node's Do serializer,
// keeping the same engines instrumentation-free.
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

// ChannelCounters accumulates per-layer channel usage for one
// simulation run: every transmission's airtime, count and bytes,
// attributed to the layer whose packet (or control frame) occupied the
// channel. One instance is shared by every MAC in the run.
//
// Concurrency contract: fields are plain integers, not atomics; every
// write site is a transmission start and the sampler reads from a
// kernel event, both on the simulation's one goroutine.
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

// Kind distinguishes monotonically increasing counters from
// point-in-time gauges in the Prometheus rendering.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Sample is one exported time-series point: a label set and a value.
type Sample struct {
	Labels []Label
	Value  float64
}

// Family is one metric family ready to render: a name, help text,
// kind, and its current samples.
type Family struct {
	Name, Help string
	Kind       Kind
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
		b.WriteByte(' ')
		b.WriteString(g.Kind.String())
		b.WriteByte('\n')
		for _, s := range g.Samples {
			b.WriteString(g.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
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
