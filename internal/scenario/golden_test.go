package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"anongossip/internal/stack"
)

// The golden digests pin the exact per-member outcome of every stack
// of the table at fixed seeds. A stack added to the table gets its
// rows the day it is added, because the cases iterate stack.Stacks.
// Every row was re-recorded once, on purpose, when sim.RNG's streams
// became PCGs (every random draw changed) and the gossip request lost
// its reserved byte. Before that the bare rows had been carried, value
// for value, from the code before stacks were composed (a Protocol enum
// dispatched by switches) through every redesign of the assembly, and
// the +gossip rows were re-recorded twice: when gossip replies began to
// retrace the walk of their request, and when AODV's route discovery
// began with an expanding ring search (MAODV's join requests, all the
// bare stacks send, do not search in rings).
//
// The Large250 row pins one 250-node large-scale run, where the radio's
// grid spans 7×7 cells instead of the 25-node rows' 4×4. It was recorded
// only after all twelve event-queue × neighbour-index × reception-model
// combinations the simulator then offered produced this exact view; the
// non-production implementations have since become in-package test
// oracles of sim and radio, held to production by their own
// differential tests. The row runs MAODV+AG, so it was re-recorded
// with the +gossip rows, and once more, alone, when AODV stopped
// re-routing a unicast whose next hop failed: the twelve stack rows
// stayed byte-identical through that change. The six bare rows stayed
// byte-identical through the ring search too. The PCG streams moved it
// with every other row.
//
// Regenerate (only after an intentional behaviour change) with:
//
//	go test ./internal/scenario -run TestStackGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stacks.json from the current code")

// goldenView is the deterministic, JSON-stable projection of a Result.
type goldenView struct {
	Sent          int
	Source        int
	Events        uint64
	MACCollisions uint64
	ControlBytes  uint64
	PayloadBytes  uint64
	TreeLatency   time.Duration
	RecLatency    time.Duration
	ReceivedMean  float64
	ReceivedMin   float64
	ReceivedMax   float64
	ReceivedStd   float64
	Members       []MemberResult
}

func viewOf(r *Result) goldenView {
	return goldenView{
		Sent:          r.Sent,
		Source:        int(r.Source),
		Events:        r.Events,
		MACCollisions: r.MACCollisions,
		ControlBytes:  r.ControlBytes,
		PayloadBytes:  r.PayloadBytes,
		TreeLatency:   r.TreeLatencyMean,
		RecLatency:    r.RecoveredLatencyMean,
		ReceivedMean:  r.Received.Mean,
		ReceivedMin:   r.Received.Min,
		ReceivedMax:   r.Received.Max,
		ReceivedStd:   r.Received.Std,
		Members:       r.Members,
	}
}

// goldenConfig is the trimmed run the digests were recorded under.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 25
	cfg.TxRange = 60
	cfg.Duration = 120 * time.Second
	cfg.DataStart = 30 * time.Second
	cfg.DataEnd = 100 * time.Second
	return cfg
}

var goldenSeeds = []int64{1, 2}

const goldenPath = "testdata/golden_stacks.json"

// goldenCase is one pinned run: its key in the golden file and the
// configuration that reproduces it.
type goldenCase struct {
	key string
	cfg Config
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, spec := range stack.Stacks() {
		for _, seed := range goldenSeeds {
			cfg := goldenConfig()
			cfg.Stack = spec
			cfg.Seed = seed
			out = append(out, goldenCase{fmt.Sprintf("%v/seed=%d", spec, seed), cfg})
		}
	}
	large := ShortenedData(LargeScaleConfig(250), 16*time.Second)
	large.Seed = 13
	return append(out, goldenCase{"Large250/seed=13", large})
}

// TestStackGolden is the differential test behind every refactor: each
// stack, assembled through whatever path the current code
// uses, must reproduce its recorded results exactly.
func TestStackGolden(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]goldenView)
	for _, c := range cases {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key] = viewOf(res)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden digests to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (record with -update-golden): %v", err)
	}
	var want map[string]goldenView
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	// Walk the cases, not the file: a stack added since the file was
	// recorded fails here by name until its rows are added.
	for _, c := range cases {
		w, ok := want[c.key]
		if !ok {
			t.Errorf("%s: no golden row (record with -update-golden)", c.key)
			continue
		}
		delete(want, c.key)
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(got[c.key])
		if string(wj) != string(gj) {
			t.Errorf("%s diverged from golden:\n want %s\n got  %s", c.key, wj, gj)
		}
	}
	for k := range want {
		t.Errorf("%s: golden row matches no stack", k)
	}
}
