// Package metrics is the unified telemetry layer: per-layer counters
// the protocol stack increments on its hot paths, a windowed
// time-series sampler driven by the simulation scheduler, and a small
// registry that renders any of it in Prometheus text format.
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
	// LayerMAC is link-level control: RTS/CTS/ACK frames.
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
// (RTS/CTS/ACK) never appear as packet kinds; the MAC attributes them
// to LayerMAC directly.
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

// family is one registered metric: a name, help text, kind, and a
// collect callback that emits the current samples. Collection is pull
// based — registering is cheap and the callback only runs when a
// scrape or summary actually wants values.
type family struct {
	name, help string
	kind       Kind
	collect    func(emit func(Sample))
}

// Registry holds metric families in registration order; Gather and
// WritePrometheus render them deterministically (families in
// registration order, samples in emission order), so two scrapes of an
// idle process are byte-identical.
type Registry struct {
	families []family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers a monotonically increasing family.
func (r *Registry) Counter(name, help string, collect func(emit func(Sample))) {
	r.families = append(r.families, family{name: name, help: help, kind: KindCounter, collect: collect})
}

// Gauge registers a point-in-time family.
func (r *Registry) Gauge(name, help string, collect func(emit func(Sample))) {
	r.families = append(r.families, family{name: name, help: help, kind: KindGauge, collect: collect})
}

// Gathered is one family's rendered samples.
type Gathered struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Gather runs every family's collector and returns the results in
// registration order.
func (r *Registry) Gather() []Gathered {
	out := make([]Gathered, 0, len(r.families))
	for _, f := range r.families {
		g := Gathered{Name: f.name, Help: f.help, Kind: f.kind}
		f.collect(func(s Sample) { g.Samples = append(g.Samples, s) })
		out = append(out, g)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). The writer is hand-rolled — the
// repo takes no dependency on a client library — and covers the
// subset the registry produces: HELP/TYPE headers, label escaping,
// and shortest-round-trip float formatting.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, g := range r.Gather() {
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
