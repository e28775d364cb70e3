package scenario

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"anongossip/internal/flood"
	"anongossip/internal/gossip"
	"anongossip/internal/maodv"
	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

// The stacks the tests select.
var (
	bareMAODV = stack.Spec{Routing: "maodv"}
	maodvAG   = stack.Spec{Routing: "maodv", Recovery: "gossip"}
	bareFlood = stack.Spec{Routing: "flood"}
	bareODMRP = stack.Spec{Routing: "odmrp"}
	odmrpAG   = stack.Spec{Routing: "odmrp", Recovery: "gossip"}
)

// shortConfig is a trimmed run (120 s, 25 nodes) for fast tests.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 25
	cfg.TxRange = 60
	cfg.Duration = 120 * time.Second
	cfg.DataStart = 30 * time.Second
	cfg.DataEnd = 100 * time.Second
	return cfg
}

func TestExpectedPackets(t *testing.T) {
	if got := DefaultConfig().ExpectedPackets(); got != 2201 {
		t.Fatalf("paper workload = %d packets, want 2201", got)
	}
	cfg := shortConfig()
	if got := cfg.ExpectedPackets(); got != 351 {
		t.Fatalf("short workload = %d, want 351", got)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := shortConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Two shapes that look wrong but are in use: bench/'s construction
	// probe runs an empty data window, and a stack without a recovery
	// layer never reads the gossip period.
	probe := shortConfig()
	probe.DataStart, probe.DataEnd = 1, 0
	if err := probe.Validate(); err != nil {
		t.Fatalf("empty data window rejected: %v", err)
	}
	bare := shortConfig()
	bare.Stack = bareMAODV
	bare.Gossip.Interval = 0
	if err := bare.Validate(); err != nil {
		t.Fatalf("bare MAODV with an unset gossip interval rejected: %v", err)
	}
	// Likewise bare flooding never reads the gossip bounds.
	flooding := shortConfig()
	flooding.Stack = bareFlood
	flooding.Gossip.PAnon, flooding.Gossip.HistoryCap = -1, -1
	if err := flooding.Validate(); err != nil {
		t.Fatalf("bare flooding with a gossip block it never builds rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no stack", func(c *Config) { c.Stack = stack.Spec{} }},
		{"bad protocol", func(c *Config) { c.Protocol = 2 }}, // the retired selector field
		// It ran one source, as if it were one.
		{"zero sources", func(c *Config) { c.NumSources = 0 }},
		{"negative sources", func(c *Config) { c.NumSources = -1 }},
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"zero member fraction", func(c *Config) { c.MemberFraction = 0 }},
		{"nan member fraction", func(c *Config) { c.MemberFraction = math.NaN() }},
		{"negative range", func(c *Config) { c.TxRange = -1 }},
		{"nan range", func(c *Config) { c.TxRange = math.NaN() }},
		{"inf range", func(c *Config) { c.TxRange = math.Inf(1) }},
		{"nan max speed", func(c *Config) { c.MaxSpeed = math.NaN() }},
		{"inf max speed", func(c *Config) { c.MaxSpeed = math.Inf(1) }},
		{"negative max speed", func(c *Config) { c.MaxSpeed = -1 }},
		{"negative inf max speed", func(c *Config) { c.MaxSpeed = math.Inf(-1) }},
		{"degenerate area", func(c *Config) { c.Area.W = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"data window past end", func(c *Config) { c.DataEnd = c.Duration + time.Second }},
		{"negative data start", func(c *Config) { c.DataStart = -time.Second }},
		{"negative data end", func(c *Config) { c.DataEnd = -10 * time.Second }},
		{"zero gossip interval", func(c *Config) { c.Gossip.Interval = 0 }},
		{"negative gossip interval", func(c *Config) { c.Gossip.Interval = -time.Second }},
		{"panon above one", func(c *Config) { c.Gossip.PAnon = 7 }},
		{"nan panon", func(c *Config) { c.Gossip.PAnon = math.NaN() }},
		{"metrics window far below the run", func(c *Config) { c.MetricsWindow = time.Nanosecond }},
		// It ran a 10-node maodv+gossip run without error, at 0.555–0.989
		// delivery where the defaults deliver 1.000.
		{"negative history cap", func(c *Config) { c.Gossip.HistoryCap = -1 }},
		// It ran as if it were zero: no pauses.
		{"negative max pause", func(c *Config) { c.MaxPause = -5 * time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := shortConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run accepted invalid config")
			}
		})
	}

	// The substrate below gossip, gossip's own tables and walks, and the
	// join schedule are fixed at the paper's parameters, so the rows that
	// once set one of their knobs past a bound now check that the values
	// every run is built on stay inside that bound, and the gossip rows
	// that the engine's fixed message bounds do: the largest
	// reply, gossip.MaxReplyMsgs messages at each protocol's payload,
	// fits a body (a request's lists are shorter still), and every list's
	// length fits its one-byte count. ODMRP's payload is unexported, so
	// odmrp's TestGossipReplyFitsABody checks its reply.
	payloads := []uint16{
		flood.DefaultConfig().PayloadLen,
		maodv.DefaultConfig().PayloadLen,
	}
	dataBody := func(payload uint16) int { return (&pkt.Data{PayloadLen: payload}).WireSize() }
	replyFits := func() bool {
		for _, p := range payloads {
			msgs := make([]pkt.Data, gossip.MaxReplyMsgs)
			for i := range msgs {
				msgs[i].PayloadLen = p
			}
			if (&pkt.GossipRep{Msgs: msgs}).WireSize() > pkt.MaxBodySize {
				return false
			}
		}
		return true
	}
	substrate := []struct {
		name   string
		inside func() bool
	}{
		{"flood data body past the wire limit", func() bool { return dataBody(flood.DefaultConfig().PayloadLen) <= pkt.MaxBodySize }},
		{"maodv data body past the wire limit", func() bool { return dataBody(maodv.DefaultConfig().PayloadLen) <= pkt.MaxBodySize }},
		{"gossip reply past the wire limit", replyFits},
		// A gossip message carries each list's length in one byte.
		{"lost buffer cap above 255", func() bool { return gossip.LostBufferCap <= math.MaxUint8 }},
		{"expected cap above 255", func() bool { return gossip.ExpectedCap <= math.MaxUint8 }},
		{"max reply msgs above 255", func() bool { return gossip.MaxReplyMsgs <= math.MaxUint8 }},
		// A member randomly decides to accept a walk (paper §4.1).
		{"negative accept probability", func() bool { return gossip.AcceptProb > 0 && gossip.AcceptProb < 1 }},
		{"negative member cache cap", func() bool { return gossip.CacheCap > 0 }},
		// A request's lost buffer is filled from the lost table.
		{"negative lost table cap", func() bool { return gossip.LostTableCap >= gossip.LostBufferCap }},
		{"negative walk ttl", func() bool { return gossip.WalkTTL > 0 }},
		// Every member has joined when the paper's data window opens.
		{"negative join window", func() bool { return joinWindow >= 0 && leaderBootstrap+joinWindow < DefaultConfig().DataStart }},
	}
	for _, tt := range substrate {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.inside() {
				t.Fatal("the fixed substrate breaks the bound")
			}
		})
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	cfg := shortConfig()
	cfg.Seed = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != cfg.ExpectedPackets() {
		t.Fatalf("sent = %d, want %d", res.Sent, cfg.ExpectedPackets())
	}
	wantMembers := int(float64(cfg.Nodes)*cfg.MemberFraction+0.5) - 1 // minus source
	if len(res.Members) != wantMembers {
		t.Fatalf("members = %d, want %d", len(res.Members), wantMembers)
	}
	if res.Received.Mean <= 0 {
		t.Fatal("nobody received anything")
	}
	if res.Received.Max > float64(res.Sent) {
		t.Fatalf("member received %v > sent %d", res.Received.Max, res.Sent)
	}
	if res.DeliveryRatio() <= 0 || res.DeliveryRatio() > 1 {
		t.Fatalf("delivery ratio = %v", res.DeliveryRatio())
	}
	if res.Events == 0 || res.ControlBytes == 0 {
		t.Fatal("missing activity counters")
	}
	for _, m := range res.Members {
		if m.Goodput < 0 || m.Goodput > 100 {
			t.Fatalf("member %v goodput = %v", m.Node, m.Goodput)
		}
		if m.Recovered > m.Received {
			t.Fatalf("member %v recovered %d > received %d", m.Node, m.Recovered, m.Received)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := shortConfig()
	cfg.Seed = 11
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Received != b.Received || a.Sent != b.Sent || a.Events != b.Events {
		t.Fatalf("same seed diverged:\n a=%+v events=%d\n b=%+v events=%d",
			a.Received, a.Events, b.Received, b.Events)
	}
	cfg.Seed = 12
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events == a.Events && c.Received == a.Received {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestGossipImprovesOnMAODV(t *testing.T) {
	// The paper's headline claim, at reduced scale: with everything else
	// fixed, MAODV+AG delivers more. (The variance-reduction claim is
	// asserted at full scale by the figure benchmarks; at this tiny
	// scale a single partitioned member dominates both ranges.)
	var gossipMean, maodvMean float64
	for _, seed := range []int64{1, 2} {
		cfg := shortConfig()
		cfg.Seed = seed

		cfg.Stack = maodvAG
		g, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stack = bareMAODV
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gossipMean += g.Received.Mean
		maodvMean += m.Received.Mean
	}
	if gossipMean <= maodvMean {
		t.Fatalf("gossip mean %v <= maodv mean %v", gossipMean/2, maodvMean/2)
	}
}

func TestFloodProtocolRuns(t *testing.T) {
	cfg := shortConfig()
	cfg.Stack = bareFlood
	cfg.Seed = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received.Mean <= 0 {
		t.Fatal("flooding delivered nothing")
	}
	if res.DeliveryRatio() < 0.5 {
		t.Fatalf("flooding delivery ratio = %v, expected robust delivery", res.DeliveryRatio())
	}
}

func TestRunSeeds(t *testing.T) {
	cfg := shortConfig()
	seeds := []int64{5, 6, 7}
	results, err := RunSeeds(cfg, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Seed != seeds[i] {
			t.Fatalf("result %d has seed %d, want %d (order lost)", i, r.Seed, seeds[i])
		}
	}
	// Parallel execution must match serial execution exactly.
	serial, err := Run(withSeed(cfg, 6))
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Received != serial.Received || results[1].Events != serial.Events {
		t.Fatal("parallel result differs from serial run with the same seed")
	}
}

func withSeed(c Config, s int64) Config {
	c.Seed = s
	return c
}

func TestAggregateResults(t *testing.T) {
	cfg := shortConfig()
	results, err := RunSeeds(cfg, []int64{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateResults(results)
	if agg.Received.N != results[0].Received.N+results[1].Received.N {
		t.Fatalf("aggregate N = %d", agg.Received.N)
	}
	if agg.Sent != results[0].Sent {
		t.Fatalf("aggregate Sent = %d", agg.Sent)
	}
	if agg.DeliveryRatio() <= 0 || agg.DeliveryRatio() > 1 {
		t.Fatalf("aggregate ratio = %v", agg.DeliveryRatio())
	}
	if agg.Goodput <= 0 || agg.Goodput > 100 {
		t.Fatalf("aggregate goodput = %v", agg.Goodput)
	}
}

// TestFigureSweepDefinitions checks the one sweep table: each sweep is
// listed once and complete, its points ascend, the paper figures reshape
// the config along the paper's axes, and Heading fills every placeholder.
func TestFigureSweepDefinitions(t *testing.T) {
	byID := map[string]Sweep{}
	for _, s := range Sweeps() {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("sweep %q duplicated", s.ID)
		}
		byID[s.ID] = s
		if s.ID == "" || s.Title == "" || s.XName == "" || len(s.Xs) == 0 || s.Apply == nil {
			t.Fatalf("sweep %q incomplete: %+v", s.ID, s)
		}
		for i := 1; i < len(s.Xs); i++ {
			if s.Xs[i] <= s.Xs[i-1] {
				t.Fatalf("sweep %q points not ascending: %v", s.ID, s.Xs)
			}
		}
		if h := s.Heading(DefaultConfig()); strings.ContainsAny(h, "{}") {
			t.Fatalf("sweep %q heading %q keeps a placeholder", s.ID, h)
		}
	}
	for _, id := range []string{"2", "3", "4", "5", "6", "7", "large", "dense", "a2", "a3", "a4"} {
		s, ok := byID[id]
		if !ok {
			t.Fatalf("sweep %q missing", id)
		}
		if paper := id[0] <= '9'; s.Paper() != paper {
			t.Fatalf("sweep %q: Paper() = %v, want %v", id, s.Paper(), paper)
		}
	}
	if _, ok := byID["8"]; ok {
		t.Fatal("Fig. 8 has no x axis, yet it is a sweep")
	}

	if xs := byID["2"].Xs; len(xs) != 9 || xs[0] != 45 || xs[8] != 85 {
		t.Fatalf("Fig. 2 points = %v", xs)
	}
	if xs := byID["3"].Xs; !slices.Equal(xs, byID["2"].Xs) {
		t.Fatalf("Fig. 3 points = %v, want Fig. 2's", xs)
	}
	if xs := byID["4"].Xs; len(xs) != 10 || xs[0] != 0.1 || xs[9] != 1.0 {
		t.Fatalf("Fig. 4 points = %v", xs)
	}
	if xs := byID["5"].Xs; len(xs) != 10 || xs[0] != 1 || xs[9] != 10 {
		t.Fatalf("Fig. 5 points = %v", xs)
	}
	if xs := byID["6"].Xs; xs[0] != 40 || xs[len(xs)-1] != 100 || !slices.Equal(byID["7"].Xs, xs) {
		t.Fatalf("Fig. 6 points = %v, Fig. 7 points = %v", xs, byID["7"].Xs)
	}

	base := DefaultConfig()
	c := byID["2"].Apply(base, 60)
	if c.TxRange != 60 || c.MaxSpeed != 0.2 || c.Nodes != 40 {
		t.Fatalf("Fig. 2 at 60 m = %+v", c)
	}
	if c = byID["3"].Apply(base, 60); c.TxRange != 60 || c.MaxSpeed != 2 {
		t.Fatalf("Fig. 3 at 60 m: range %v, speed %v", c.TxRange, c.MaxSpeed)
	}
	for _, id := range []string{"4", "5"} {
		if c = byID[id].Apply(base, 3); c.MaxSpeed != 3 || c.TxRange != 75 || c.Nodes != 40 {
			t.Fatalf("Fig. %s at 3 m/s = %+v", id, c)
		}
	}
	// Fig 6 keeps n*r^2 constant: 40*75^2 == n*r(n)^2.
	c = byID["6"].Apply(base, 90)
	if got, want := float64(c.Nodes)*c.TxRange*c.TxRange, 40.0*75*75; got < want*0.99 || got > want*1.01 {
		t.Fatalf("Fig. 6 degree product = %v, want %v", got, want)
	}
	if c = byID["7"].Apply(base, 70); c.TxRange != 55 || c.Nodes != 70 {
		t.Fatalf("Fig. 7 at 70 nodes = %+v", c)
	}
	if _, ok := byID["huge"]; ok {
		t.Fatal("huge is a configuration, not a sweep")
	}
	// The ablations turn one gossip knob at 55 m and 1 m/s.
	for id, x := range map[string]float64{"a2": 1, "a3": 2000, "a4": 25} {
		if c = byID[id].Apply(base, x); c.TxRange != 55 || c.MaxSpeed != 1 || c.Nodes != 40 {
			t.Fatalf("%s at %v = %+v", id, x, c)
		}
	}
	if g := byID["a2"].Apply(base, 1).Gossip; g.PAnon != 1 {
		t.Fatalf("a2 at 1: PAnon %v", g.PAnon)
	}
	if g := byID["a3"].Apply(base, 2000).Gossip; g.Interval != 2*time.Second {
		t.Fatalf("a3 at 2000 ms: interval %v", g.Interval)
	}
	if g := byID["a4"].Apply(base, 25).Gossip; g.HistoryCap != 25 {
		t.Fatalf("a4 at 25: HistoryCap %d", g.HistoryCap)
	}

	// A point off the paper prints as it is, fractional or not.
	var out strings.Builder
	PrintComparison(&out, byID["a2"], base, 1, []ComparisonRow{{X: 0.7}, {X: 250}, {X: 100000}})
	for _, want := range []string{"\n0.7        | ", "\n250        | ", "\n100000     | "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table lacks the row %q:\n%s", want, out.String())
		}
	}

	dbase := base
	dbase.Nodes = 100
	if h := byID["dense"].Heading(dbase); !strings.Contains(h, "(100 nodes, 5 sources,") {
		t.Fatalf("dense heading = %q", h)
	}

	if cases := Fig8Cases(); len(cases) != 4 {
		t.Fatalf("Fig8Cases = %v", cases)
	}
	if s := Seeds(10); len(s) != 10 || s[0] != 1 || s[9] != 10 {
		t.Fatalf("Seeds = %v", s)
	}
	if Seeds(0) != nil || Seeds(-1) != nil {
		t.Fatalf("Seeds(0) = %v, Seeds(-1) = %v, want nil", Seeds(0), Seeds(-1))
	}
}

// sweep returns the table's sweep id.
func sweep(t *testing.T, id string) Sweep {
	t.Helper()
	for _, s := range Sweeps() {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("no sweep %q", id)
	return Sweep{}
}

func TestRunComparisonSmall(t *testing.T) {
	base := shortConfig()
	rows, err := RunComparison(base, []float64{60}, func(c Config, x float64) Config {
		c.TxRange = x
		return c
	}, []int64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].X != 60 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Gossip.Received.N == 0 || rows[0].Maodv.Received.N == 0 {
		t.Fatal("empty aggregates")
	}
}

func TestRunGoodputSmall(t *testing.T) {
	base := shortConfig()
	row, err := RunGoodput(base, GoodputCase{TxRange: 60, MaxSpeed: 0.2}, []int64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.PerMember) == 0 {
		t.Fatal("no per-member goodput values")
	}
	for _, g := range row.PerMember {
		if g < 0 || g > 100 {
			t.Fatalf("goodput %v out of range", g)
		}
	}
}

func TestODMRPProtocols(t *testing.T) {
	cfg := shortConfig()
	cfg.Seed = 2

	cfg.Stack = bareODMRP
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Received.Mean <= 0 {
		t.Fatal("ODMRP delivered nothing")
	}

	cfg.Stack = odmrpAG
	withAG, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withAG.Received.Mean <= 0 {
		t.Fatal("ODMRP+AG delivered nothing")
	}
	// The paper's future-work claim: AG should improve (or at minimum
	// not hurt) mesh-based multicast too.
	if withAG.Received.Mean < bare.Received.Mean {
		t.Fatalf("AG over ODMRP regressed delivery: %.1f < %.1f",
			withAG.Received.Mean, bare.Received.Mean)
	}
}
