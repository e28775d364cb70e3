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
	const runs = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for range runs {
			c.ObserveTx(LayerData, 500*time.Microsecond, 128)
			c.ObserveTx(LayerMAC, 50*time.Microsecond, 14)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d runs of ObserveTx allocate %v times, want 0", runs, allocs)
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

// TestWindowsFromReadings builds two windows from three cumulative
// readings the way the scenario harness does: the counters by Sub, the
// gauges as read at the window's end.
func TestWindowsFromReadings(t *testing.T) {
	var r0, r1, r2 Counters
	r1.AirtimeByLayer[LayerData] = 400 * time.Millisecond
	r1.AirtimeByLayer[LayerGossip] = 100 * time.Millisecond
	r1.TxByLayer[LayerData] = 4
	r1.BytesByLayer[LayerData] = 400
	r1.Delivered = 10
	r1.MACBackoff = time.Millisecond
	r2 = r1
	r2.AirtimeByLayer[LayerData] = 500 * time.Millisecond
	r2.Delivered = 12

	w0 := Window{Start: 0, End: time.Second, Counters: r1.Sub(r0), InFlight: 2}
	if got := w0.BusyFraction(); got != 0.5 {
		t.Errorf("window 0 busy fraction = %v, want 0.5", got)
	}
	if got := w0.AirtimeShare(LayerData); got != 0.8 {
		t.Errorf("window 0 data airtime share = %v, want 0.8", got)
	}
	if w0.Counters != r1 {
		t.Errorf("window 0 from a zero reading = %+v, want %+v", w0.Counters, r1)
	}
	w1 := Window{Start: time.Second, End: 2 * time.Second, Counters: r2.Sub(r1)}
	if got := w1.BusyFraction(); got != 0.1 {
		t.Errorf("window 1 busy fraction = %v, want 0.1", got)
	}
	if w1.Delivered != 2 || w1.TxByLayer[LayerData] != 0 || w1.BytesByLayer[LayerData] != 0 || w1.MACBackoff != 0 {
		t.Errorf("window 1 deltas = %+v, want only 2 deliveries and 100ms data airtime", w1.Counters)
	}
	// The windows' deltas add back up to the last reading.
	sum := w0.Counters
	sum.Add(w1.ChannelCounters)
	if sum.ChannelCounters != r2.ChannelCounters {
		t.Errorf("channel deltas sum to %+v, want %+v", sum.ChannelCounters, r2.ChannelCounters)
	}
}

// TestWindowJSONAndCSV checks a window's -json record (agbench -metrics
// writes the series there) and its row in the CLI table.
func TestWindowJSONAndCSV(t *testing.T) {
	win := Window{Start: 0, End: time.Second}
	win.AirtimeByLayer[LayerData] = 250 * time.Millisecond
	win.TxByLayer[LayerData] = 2
	win.GossipRounds = 3
	s := Series{WindowLen: time.Second, Windows: []Window{win}}

	raw, err := json.Marshal(s.Windows[0])
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
	// The CLI table: the same window as one fixed-width row under a
	// header, every column present.
	if err := s.WriteTable(&buf); err != nil {
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
