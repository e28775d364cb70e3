package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"anongossip/internal/pkt"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		kind pkt.Kind
		want Layer
	}{
		{pkt.KindData, LayerData},
		{pkt.KindGossipReq, LayerGossip},
		{pkt.KindGossipRep, LayerGossip},
		{pkt.KindHello, LayerRouting},
		{pkt.KindRREQ, LayerRouting},
		{pkt.KindRREP, LayerRouting},
		{pkt.KindRERR, LayerRouting},
		{pkt.KindMACT, LayerRouting},
		{pkt.KindGRPH, LayerRouting},
		{pkt.KindNearest, LayerRouting},
		{pkt.KindJoinQuery, LayerRouting},
		{pkt.KindJoinReply, LayerRouting},
	}
	for _, c := range cases {
		if got := LayerOf(c.kind); got != c.want {
			t.Errorf("LayerOf(%v) = %v, want %v", c.kind, got, c.want)
		}
	}
}

// TestObserveTxZeroAlloc pins the hot-path counter write at zero
// allocations: ObserveTx runs on every transmission start, and an
// allocation there would slow the kernel and be a GC-visible side
// effect of enabling metrics.
func TestObserveTxZeroAlloc(t *testing.T) {
	var c ChannelCounters
	allocs := testing.AllocsPerRun(1000, func() {
		c.ObserveTx(LayerData, 500*time.Microsecond, 128)
		c.ObserveTx(LayerMAC, 50*time.Microsecond, 14)
	})
	if allocs != 0 {
		t.Fatalf("ObserveTx allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkObserveTx(b *testing.B) {
	var c ChannelCounters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ObserveTx(LayerData, 500*time.Microsecond, 128)
	}
}

func TestChannelCountersTotals(t *testing.T) {
	var c ChannelCounters
	c.ObserveTx(LayerData, 2*time.Millisecond, 100)
	c.ObserveTx(LayerGossip, 1*time.Millisecond, 50)
	c.ObserveTx(LayerGossip, 1*time.Millisecond, 50)
	if got := c.TotalAirtime(); got != 4*time.Millisecond {
		t.Errorf("TotalAirtime = %v, want 4ms", got)
	}
	if got := c.TotalTx(); got != 3 {
		t.Errorf("TotalTx = %d, want 3", got)
	}
	if c.BytesByLayer[LayerGossip] != 100 {
		t.Errorf("gossip bytes = %d, want 100", c.BytesByLayer[LayerGossip])
	}
}

func TestSamplerWindows(t *testing.T) {
	var cum Snapshot
	s := NewSampler(time.Second, func() Snapshot { return cum })

	cum.AirtimeByLayer[LayerData] = 400 * time.Millisecond
	cum.AirtimeByLayer[LayerGossip] = 100 * time.Millisecond
	cum.TxByLayer[LayerData] = 4
	cum.Delivered = 10
	cum.InFlight = 2
	s.Tick(time.Second)

	cum.AirtimeByLayer[LayerData] = 500 * time.Millisecond
	cum.Delivered = 12
	cum.InFlight = 0
	s.Tick(2 * time.Second)

	ser := s.Series()
	if len(ser.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(ser.Windows))
	}
	w0 := ser.Windows[0]
	if got := w0.BusyFraction(); got != 0.5 {
		t.Errorf("window 0 busy fraction = %v, want 0.5", got)
	}
	if got := w0.AirtimeShare(LayerData); got != 0.8 {
		t.Errorf("window 0 data airtime share = %v, want 0.8", got)
	}
	if w0.InFlight != 2 {
		t.Errorf("window 0 in-flight = %d, want 2", w0.InFlight)
	}
	w1 := ser.Windows[1]
	if got := w1.BusyFraction(); got != 0.1 {
		t.Errorf("window 1 busy fraction = %v, want 0.1", got)
	}
	if w1.Delivered != 2 {
		t.Errorf("window 1 delivered delta = %d, want 2", w1.Delivered)
	}
	if w1.InFlight != 0 {
		t.Errorf("window 1 in-flight = %d, want 0", w1.InFlight)
	}
	if got := s.Fired(); got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

// A horizon flush at an exact window boundary must not emit an empty
// window, but still counts as a fired tick for event parity.
func TestSamplerBoundaryFlush(t *testing.T) {
	s := NewSampler(time.Second, func() Snapshot { return Snapshot{} })
	s.Tick(time.Second)
	s.Tick(time.Second)
	if got := len(s.Series().Windows); got != 1 {
		t.Fatalf("got %d windows, want 1", got)
	}
	if got := s.Fired(); got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

func TestWindowJSONAndCSV(t *testing.T) {
	var cum Snapshot
	s := NewSampler(time.Second, func() Snapshot { return cum })
	cum.AirtimeByLayer[LayerData] = 250 * time.Millisecond
	cum.TxByLayer[LayerData] = 2
	cum.GossipRounds = 3
	s.Tick(time.Second)

	raw, err := json.Marshal(s.Series().Windows[0])
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m["busy_fraction"].(float64) != 0.25 {
		t.Errorf("busy_fraction = %v, want 0.25", m["busy_fraction"])
	}
	share := m["airtime_share"].(map[string]any)
	if share["data"].(float64) != 1 {
		t.Errorf("data airtime share = %v, want 1", share["data"])
	}

	var buf bytes.Buffer
	if err := s.Series().WriteCSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines, want header + 1 row", len(lines))
	}
	if !strings.Contains(lines[0], "busy_fraction") || !strings.Contains(lines[0], "airtime_share_gossip") {
		t.Errorf("csv header missing expected columns: %q", lines[0])
	}
	if !strings.Contains(lines[1], "0.2500") {
		t.Errorf("csv row missing busy fraction: %q", lines[1])
	}

	// The CLI table: the same window as one fixed-width row under a
	// header, every column present.
	buf.Reset()
	if err := s.Series().WriteTable(&buf); err != nil {
		t.Fatalf("table: %v", err)
	}
	const want = "" +
		"   t(s)   busy |   mac route  data gossip |  rounds   deliv   retry  queue    air\n" +
		"      1  25.0% |    0%    0%  100%    0% |       3       0       0      0      0\n"
	if buf.String() != want {
		t.Errorf("table =\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	families := []Family{
		{Name: "ag_hits_total", Help: "Total hits.", Kind: KindCounter,
			Samples: []Sample{{Labels: []Label{{"layer", "data"}}, Value: 42}}},
		{Name: "ag_queue_depth", Help: "Current backlog.", Kind: KindGauge,
			Samples: []Sample{{Value: 3}}},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, families); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ag_hits_total Total hits.",
		"# TYPE ag_hits_total counter",
		`ag_hits_total{layer="data"} 42`,
		"# TYPE ag_queue_depth gauge",
		"ag_queue_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Two scrapes of unchanged state are byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, families); err != nil {
		t.Fatalf("write: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Error("scrapes of unchanged state differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	err := WritePrometheus(&buf, []Family{{Name: "ag_esc", Kind: KindGauge,
		Samples: []Sample{{Labels: []Label{{"v", `a"b\c` + "\n"}}, Value: 1}}}})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(buf.String(), `ag_esc{v="a\"b\\c\n"} 1`) {
		t.Errorf("bad escaping: %q", buf.String())
	}
}
