package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/stack"
)

func TestParsePeer(t *testing.T) {
	p, err := parsePeer("3=127.0.0.1:7003")
	if err != nil {
		t.Fatalf("parsePeer: %v", err)
	}
	if p.id != 3 || p.addr != "127.0.0.1:7003" {
		t.Fatalf("parsePeer = %+v", p)
	}
	for _, bad := range []string{"", "3", "x=127.0.0.1:7003", "3=no-port", "3=127.0.0.1",
		// Not a node address: zero, broadcast, and a 33-bit id that would
		// narrow to node 1.
		"0=127.0.0.1:1", "4294967295=127.0.0.1:1", "4294967297=127.0.0.1:1"} {
		if _, err := parsePeer(bad); err == nil {
			t.Errorf("parsePeer(%q) accepted", bad)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-stack", "flood"}); err == nil || !strings.Contains(err.Error(), "-id") {
		t.Errorf("missing -id err = %v", err)
	}
	if err := run([]string{"-id", "1", "-stack", "tarot"}); err == nil ||
		!strings.Contains(err.Error(), "unknown stack") {
		t.Errorf("unknown stack err = %v", err)
	}
	if err := run([]string{"-id", "1", "-peer", "nonsense"}); err == nil {
		t.Error("malformed -peer accepted")
	}
}

// TestRunRejectsBadInput pins that identity and clock flags are checked
// at parsing, before any socket opens, with an error naming the flag: a
// 33-bit -id or -group must not be narrowed into someone else's
// address, and a NaN time scale must not reach the timer arithmetic.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tt := range []struct {
		flag string
		args []string
	}{
		{"-id", []string{"-id", "4294967297"}}, // would narrow to node 1
		{"-id", []string{"-id", "4294967296"}}, // would narrow to node 0
		{"-id", []string{"-id", "4294967295"}}, // pkt.Broadcast
		{"-group", []string{"-id", "1", "-group", "4294967296"}},
		{"-group", []string{"-id", "1", "-group", "0"}},
		{"-peer", []string{"-id", "1", "-peer", "0=127.0.0.1:1"}},
		{"-peer", []string{"-id", "1", "-peer", "4294967295=127.0.0.1:1"}},
		{"-timescale", []string{"-id", "1", "-timescale", "NaN"}},
		{"-timescale", []string{"-id", "1", "-timescale", "0"}},
		{"-timescale", []string{"-id", "1", "-timescale", "+Inf"}},
		{"-inbox", []string{"-id", "1", "-inbox", "-1"}}, // ran the default
	} {
		// A wrongly accepted row boots the daemon, which serves until
		// interrupted: run it off the test goroutine so such a row fails
		// instead of hanging the suite.
		done := make(chan error, 1)
		go func() { done <- run(tt.args) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tt.flag) {
				t.Errorf("run(%v) err = %v, want one naming %s", tt.args, err, tt.flag)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("run(%v) never returned, want an error naming %s", tt.args, tt.flag)
		}
	}
}

// TestStackAliases pins that agnode resolves the alias spellings agsim
// accepts and boots the stack they name.
func TestStackAliases(t *testing.T) {
	for name, want := range map[string]string{"gossip": "maodv+gossip", "odmrp-gossip": "odmrp+gossip"} {
		spec, err := stack.ByName(name)
		if err != nil {
			t.Errorf("-stack %s: %v", name, err)
			continue
		}
		d, err := newDaemon(daemonConfig{ID: 1, Stack: spec, TimeScale: 100}, netrt.NewChanTransport())
		if err != nil {
			t.Errorf("-stack %s: %v", name, err)
			continue
		}
		if got := d.pn.Spec().String(); got != want {
			t.Errorf("-stack %s runs %s, want %s", name, got, want)
		}
		d.Close()
	}
}

// bootDaemons starts n agnode daemons on one in-process transport with
// httptest servers in front of their APIs.
func bootDaemons(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	tr := netrt.NewChanTransport()
	apis := make([]*httptest.Server, 0, n)
	for i := 0; i < n; i++ {
		d, err := newDaemon(daemonConfig{
			ID:        pkt.NodeID(i + 1),
			Stack:     stack.Spec{Routing: "flood"},
			Seed:      7,
			TimeScale: 100,
		}, tr)
		if err != nil {
			t.Fatalf("newDaemon %d: %v", i+1, err)
		}
		t.Cleanup(func() { d.Close() })
		srv := httptest.NewServer(d.handler())
		t.Cleanup(srv.Close)
		apis = append(apis, srv)
	}
	return apis
}

func getStats(t *testing.T, srv *httptest.Server) statsReport {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats status %d", resp.StatusCode)
	}
	var rep statsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return rep
}

// TestDaemonClusterEndToEnd boots a 3-daemon loopback cluster and
// drives the whole client API: subscribe on one node, publish from
// another, watch the delivery arrive over SSE and in /stats.
func TestDaemonClusterEndToEnd(t *testing.T) {
	apis := bootDaemons(t, 3)

	// SSE subscriber on node 3, attached before publishing.
	req, err := http.NewRequest("GET", apis[2].URL+"/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /subscribe: %v", err)
	}
	defer resp.Body.Close()

	const packets = 5
	for i := 0; i < packets; i++ {
		pr, err := http.Post(apis[0].URL+"/publish", "", nil)
		if err != nil {
			t.Fatalf("POST /publish: %v", err)
		}
		var key struct {
			Origin pkt.NodeID `json:"origin"`
			Seq    uint32     `json:"seq"`
		}
		if err := json.NewDecoder(pr.Body).Decode(&key); err != nil {
			t.Fatalf("publish decode: %v", err)
		}
		pr.Body.Close()
		if key.Origin != 1 {
			t.Fatalf("publish origin = %v, want 1", key.Origin)
		}
	}

	// The SSE stream carries each delivery as one data: line.
	sse := bufio.NewScanner(resp.Body)
	seen := 0
	deadline := time.AfterFunc(20*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sse.Scan() && seen < packets {
		line := sse.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev delivery
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE event does not parse: %v (%q)", err, line)
		}
		if ev.Origin != 1 {
			t.Errorf("delivery origin = %v, want 1", ev.Origin)
		}
		seen++
	}
	if seen < packets {
		t.Fatalf("SSE stream carried %d deliveries, want %d", seen, packets)
	}

	// /stats on both receivers reflects full delivery.
	for i, srv := range apis[1:] {
		var rep statsReport
		waitDeadline := time.Now().Add(20 * time.Second)
		for {
			rep = getStats(t, srv)
			if rep.Delivered >= packets || time.Now().After(waitDeadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if rep.Delivered != packets {
			t.Errorf("node %d delivered %d, want %d", i+2, rep.Delivered, packets)
		}
		if rep.Stack != "flood" {
			t.Errorf("node %d stack = %q", i+2, rep.Stack)
		}
		if rep.Link.FramesIn == 0 {
			t.Errorf("node %d link counters empty: %+v", i+2, rep.Link)
		}
		if rep.GapMS.N != packets-1 {
			t.Errorf("node %d gap summary N = %d, want %d", i+2, rep.GapMS.N, packets-1)
		}
	}

	// The publisher's own stats count sends, not deliveries.
	pub := getStats(t, apis[0])
	if pub.Node.Sent == 0 {
		t.Errorf("publisher Sent = 0: %+v", pub.Node)
	}
}

// TestArrivalWindowBounded delivers more packets than the arrival ring
// holds: the delivery counter keeps counting while the retained
// timestamps, and the gap summary built from them, stay bounded and in
// arrival order.
func TestArrivalWindowBounded(t *testing.T) {
	tr := netrt.NewChanTransport()
	var ds []*daemon
	for i := 0; i < 2; i++ {
		d, err := newDaemon(daemonConfig{
			ID:        pkt.NodeID(i + 1),
			Stack:     stack.Spec{Routing: "flood"},
			Seed:      7,
			TimeScale: 100,
		}, tr)
		if err != nil {
			t.Fatalf("newDaemon %d: %v", i+1, err)
		}
		t.Cleanup(func() { d.Close() })
		ds = append(ds, d)
	}
	const packets = arrivalWindow + 50
	// flood remembers 1024 packets. A publisher that runs a thousand
	// ahead forgets its first ones before the receiver's rebroadcasts of
	// them come back, takes those for new and sends them round again, so
	// keep it within a quarter of that of what the receiver has counted.
	delivered := func() int {
		ds[1].mu.Lock()
		defer ds[1].mu.Unlock()
		return int(ds[1].count)
	}
	for i := 0; i < packets; i++ {
		for deadline := time.Now().Add(20 * time.Second); i-delivered() > 256 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if _, err := ds[0].pn.Publish(ds[0].cfg.Group); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	var rep *statsReport
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if rep, err = ds[1].report(); err != nil {
			t.Fatal(err)
		}
		if rep.Delivered >= packets || time.Now().After(deadline) {
			break
		}
	}
	if rep.Delivered != packets {
		t.Fatalf("delivered %d, want %d", rep.Delivered, packets)
	}
	if retained := len(ds[1].arrivals); retained != arrivalWindow {
		t.Errorf("retained %d arrival instants, want the window of %d", retained, arrivalWindow)
	}
	if rep.GapMS.N != arrivalWindow-1 {
		t.Errorf("gap summary N = %d, want %d", rep.GapMS.N, arrivalWindow-1)
	}
	if rep.GapMS.Min < 0 {
		t.Errorf("gap summary min = %v ms: the ring was read out of arrival order", rep.GapMS.Min)
	}
}

// TestMetricsAndPprofEndpoints boots a gossip-stack loopback cluster,
// publishes through it, and scrapes the observability surface: GET
// /metrics must expose the delivery/link/recovery families in
// Prometheus text format and reflect traffic, and the pprof handlers
// must serve under /debug/pprof/.
func TestMetricsAndPprofEndpoints(t *testing.T) {
	tr := netrt.NewChanTransport()
	apis := make([]*httptest.Server, 0, 2)
	for i := 0; i < 2; i++ {
		d, err := newDaemon(daemonConfig{
			ID:        pkt.NodeID(i + 1),
			Stack:     stack.Spec{Routing: "flood", Recovery: "gossip"},
			Seed:      11,
			TimeScale: 100,
		}, tr)
		if err != nil {
			t.Fatalf("newDaemon %d: %v", i+1, err)
		}
		t.Cleanup(func() { d.Close() })
		srv := httptest.NewServer(d.handler())
		t.Cleanup(srv.Close)
		apis = append(apis, srv)
	}

	for i := 0; i < 3; i++ {
		pr, err := http.Post(apis[0].URL+"/publish", "", nil)
		if err != nil {
			t.Fatalf("POST /publish: %v", err)
		}
		pr.Body.Close()
	}

	scrape := func(srv *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("GET /metrics content type %q", ct)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET /metrics read: %v", err)
		}
		return string(data)
	}

	// The receiver sees the published packets; poll until its counter
	// moves, then check the families.
	deadline := time.Now().Add(20 * time.Second)
	var body string
	for {
		body = scrape(apis[1])
		if strings.Contains(body, "agnode_delivered_total 3") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE agnode_delivered_total counter",
		"agnode_delivered_total 3",
		`agnode_link_frames_total{direction="in"}`,
		`agnode_node_packets_total{op="delivered"}`,
		`agnode_recovery_packets_total{op="delivered"}`,
		"# TYPE agnode_subscribers gauge",
		"agnode_inbox_capacity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(apis[0].URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s status %d", path, resp.StatusCode)
		}
	}
}

// TestDaemonDuplicateID pins the cluster-level duplicate-identity
// contract: a second daemon claiming a live node's ID must fail to
// start with a clear error.
func TestDaemonDuplicateID(t *testing.T) {
	tr := netrt.NewChanTransport()
	cfg := daemonConfig{ID: 9, Stack: stack.Spec{Routing: "flood"}, TimeScale: 100}
	d, err := newDaemon(cfg, tr)
	if err != nil {
		t.Fatalf("first daemon: %v", err)
	}
	defer d.Close()
	if _, err := newDaemon(cfg, tr); err == nil {
		t.Fatal("duplicate-ID daemon started, want error")
	} else if !strings.Contains(err.Error(), "already joined") {
		t.Errorf("duplicate-ID error %q does not name the cause", err)
	}
}
