package scenario

import (
	"reflect"
	"testing"
	"time"
)

// Tests for the extension features: multi-source workloads and latency
// metrics.

func TestMultiSourceWorkload(t *testing.T) {
	cfg := shortConfig()
	cfg.NumSources = 3
	cfg.Seed = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * cfg.ExpectedPackets(); res.Sent != want {
		t.Fatalf("sent = %d, want %d (3 sources)", res.Sent, want)
	}
	nMembers := int(float64(cfg.Nodes)*cfg.MemberFraction + 0.5)
	if want := nMembers - 3; len(res.Members) != want {
		t.Fatalf("receivers = %d, want %d (members minus sources)", len(res.Members), want)
	}
	// Receivers hear multiple origins: counts can exceed one stream.
	if res.Received.Max <= float64(cfg.ExpectedPackets()) {
		t.Logf("note: no member exceeded a single stream (max %.0f)", res.Received.Max)
	}
	if res.Received.Mean <= 0 {
		t.Fatal("nobody received anything with 3 sources")
	}
}

func TestTooManySourcesRejected(t *testing.T) {
	cfg := shortConfig()
	cfg.NumSources = 1000
	if _, err := Run(cfg); err == nil {
		t.Fatal("absurd source count accepted")
	}
}

func TestZeroSourcesDefaultsToOne(t *testing.T) {
	cfg := shortConfig()
	cfg.NumSources = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != cfg.ExpectedPackets() {
		t.Fatalf("sent = %d, want one stream %d", res.Sent, cfg.ExpectedPackets())
	}
}

func TestLatencyMetrics(t *testing.T) {
	cfg := shortConfig()
	cfg.Seed = 9
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeLatencyMean <= 0 {
		t.Fatal("no tree latency recorded")
	}
	// Tree forwarding is a handful of per-hop airtimes + jitter: well
	// under a second.
	if res.TreeLatencyMean > time.Second {
		t.Fatalf("tree latency %v implausibly high", res.TreeLatencyMean)
	}
	// Gossip recovery is round-based: when it happened at all, it must
	// be slower than tree delivery.
	if res.RecoveredLatencyMean > 0 && res.RecoveredLatencyMean < res.TreeLatencyMean {
		t.Fatalf("recovered latency %v < tree latency %v",
			res.RecoveredLatencyMean, res.TreeLatencyMean)
	}
}

func TestLatencyMetricsMAODV(t *testing.T) {
	cfg := shortConfig()
	cfg.Stack = bareMAODV
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeLatencyMean <= 0 {
		t.Fatal("no tree latency recorded for MAODV")
	}
	if res.RecoveredLatencyMean != 0 {
		t.Fatal("MAODV-only run recorded gossip recovery latency")
	}
}

func TestTraceCapture(t *testing.T) {
	cfg := shortConfig()
	cfg.TraceCapacity = 500
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Total() == 0 {
		t.Fatal("trace enabled but empty")
	}
	if res.Trace.Len() > 500 {
		t.Fatalf("trace retained %d > capacity", res.Trace.Len())
	}

	// The ring is the trace: record order is execution order, a second
	// run of the seed reproduces it, and tracing only observes.
	events := res.Trace.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("trace[%d] at %v precedes trace[%d] at %v", i, events[i].At, i-1, events[i-1].At)
		}
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Trace.Events(), events) {
		t.Fatal("two runs of one seed produced different traces")
	}
	cfg.TraceCapacity = 0
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != res.Events || plain.Sent != res.Sent || plain.Received != res.Received {
		t.Fatalf("tracing changed the run: events %d/%d, sent %d/%d, received %+v/%+v",
			res.Events, plain.Events, res.Sent, plain.Sent, res.Received, plain.Received)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	cfg := shortConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded without being requested")
	}
}
