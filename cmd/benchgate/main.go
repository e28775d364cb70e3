// Command benchgate is the CI bench regression gate: it compares two
// `agbench -json` records and fails on a throughput, allocation-rate or
// per-node-memory regression. (The performance ledger itself is the
// bench/ module; this gate only keeps CI's smoke runs honest.)
//
// Gate mode compares a fresh record against the frozen smoke baseline
// committed at the repo root:
//
//	agbench -fig dense -dense-nodes 100 -dense-max 20 -seeds 1 \
//	        -duration 75s -json fresh.json
//	benchgate -baseline BENCH_PR9.json -candidate fresh.json
//
// The gate compares sweep-wide events/sec (candidate must reach
// -min-speed-ratio of baseline, default 0.5 — wide enough for shared
// CI runners, tight enough to catch an accidental O(n) slip) and
// mallocs/event (candidate must stay under -max-allocs-ratio of
// baseline, default 1.5). It refuses to compare records from different
// workloads: protocol, figure set, seeds and duration must match. The
// committed baseline embeds one smoke record per figure set, and — from
// the time the event queue was selectable — per queue kind; the gate
// picks the figure set's record for the 4-ary heap, the only queue
// there is now.
//
// Raw-baseline mode gates two agbench -json records produced in the
// same run against each other — no committed BENCH_*.json involved.
// CI uses it as the metrics-overhead gate: one dense sweep without
// sampling, one with `-metrics`, and the sampled run must keep at
// least -min-speed-ratio of the plain run's events/sec:
//
//	benchgate -raw-baseline plain.json -candidate sampled.json \
//	          -min-speed-ratio 0.9
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// smokeRecord is the slice of agbench's -json report the gate reads.
// Field names must stay in lockstep with cmd/agbench's jsonReport.
type smokeRecord struct {
	GoVersion       string          `json:"go_version"`
	Protocol        string          `json:"protocol"`
	Seeds           int             `json:"seeds"`
	Duration        string          `json:"duration"`
	Figures         json.RawMessage `json:"figures"`
	TotalEvents     uint64          `json:"total_events"`
	MallocsPerEvent float64         `json:"mallocs_per_event"`
	// PeakHeapBytes / HeapBytesPerNode are present on heap-measured
	// records (agbench -fig huge); the gate's memory ceilings compare
	// them like for like.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	HeapBytesPerNode float64 `json:"heap_bytes_per_node"`
	// Queue is only present on records written while the event queue
	// was selectable (the committed baseline's); see loadSmoke.
	Queue string `json:"queue"`

	// Derived from Figures at load time.
	figureIDs    []string
	events       uint64
	wallSeconds  float64
	eventsPerSec float64
}

// baseline is the slice of the committed BENCH_*.json schema the gate
// reads; the file's recording-time matrix is ignored.
type baseline struct {
	// Smoke is the historical single-record schema, kept readable.
	Smoke json.RawMessage `json:"smoke_baseline,omitempty"`
	// Smokes holds the embedded agbench -json records.
	Smokes []json.RawMessage `json:"smoke_baselines,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "", "committed baseline (BENCH_*.json) to gate against")
		rawBaseline  = fs.String("raw-baseline", "", "raw agbench -json record to gate against (same-run comparison, e.g. the metrics-overhead gate)")
		candidate    = fs.String("candidate", "", "fresh agbench -json record to check")
		minSpeed     = fs.Float64("min-speed-ratio", 0.5, "fail if candidate events/sec falls below this fraction of baseline")
		maxAllocs    = fs.Float64("max-allocs-ratio", 1.5, "fail if candidate mallocs/event exceeds this multiple of baseline")
		maxHeap      = fs.Float64("max-heap-ratio", 1.3, "fail if candidate heap bytes/node exceeds this multiple of baseline (heap-measured records only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath != "" && *rawBaseline != "" {
		return fmt.Errorf("-baseline and -raw-baseline are mutually exclusive")
	}
	base, embedded := *baselinePath, true
	if *rawBaseline != "" {
		base, embedded = *rawBaseline, false
	}
	if base == "" || *candidate == "" {
		return fmt.Errorf("need -baseline or -raw-baseline, and -candidate; see -help")
	}
	return runGate(base, embedded, *candidate, *minSpeed, *maxAllocs, *maxHeap)
}

// loadSmoke parses one agbench -json record. When embedded is true the
// path names a committed baseline, and wantFigs selects the embedded
// smoke record of that figure set — dense gates against dense, huge
// against huge, never across — skipping records of the since-removed
// event queues (an absent queue name, like "quad", means the 4-ary
// heap).
func loadSmoke(path string, embedded bool, wantFigs string) (*smokeRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if embedded {
		var b baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s does not parse as a baseline: %w", path, err)
		}
		candidates := b.Smokes
		if len(candidates) == 0 && len(b.Smoke) > 0 {
			candidates = []json.RawMessage{b.Smoke}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("%s has no smoke baseline record", path)
		}
		data = nil
		var have []string
		for _, raw := range candidates {
			var probe smokeRecord
			if err := json.Unmarshal(raw, &probe); err != nil {
				return nil, fmt.Errorf("%s: embedded smoke record does not parse: %w", path, err)
			}
			if err := parseFigures(&probe, path); err != nil {
				return nil, err
			}
			figs := strings.Join(probe.figureIDs, "+")
			if probe.Queue != "" && probe.Queue != "quad" {
				continue
			}
			have = append(have, figs)
			if figs == wantFigs {
				data = raw
				break
			}
		}
		if data == nil {
			return nil, fmt.Errorf("%s has no smoke record for figures %q (recorded: %s) — not comparable across figure sets",
				path, wantFigs, strings.Join(have, ", "))
		}
	}
	var rec smokeRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s does not parse as an agbench record: %w", path, err)
	}
	if err := parseFigures(&rec, path); err != nil {
		return nil, err
	}
	if rec.wallSeconds > 0 {
		rec.eventsPerSec = float64(rec.events) / rec.wallSeconds
	}
	return &rec, nil
}

// parseFigures pulls the per-figure ids and perf numbers out of a
// record's raw figure list into the derived fields.
func parseFigures(rec *smokeRecord, path string) error {
	if rec.figureIDs != nil {
		return nil
	}
	var figs []struct {
		Figure string `json:"figure"`
		Points []struct {
			Events      uint64  `json:"events"`
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"points"`
	}
	if len(rec.Figures) > 0 {
		if err := json.Unmarshal(rec.Figures, &figs); err != nil {
			return fmt.Errorf("%s: figures do not parse: %w", path, err)
		}
	}
	for _, f := range figs {
		rec.figureIDs = append(rec.figureIDs, f.Figure)
		for _, p := range f.Points {
			rec.events += p.Events
			rec.wallSeconds += p.WallSeconds
		}
	}
	return nil
}

func runGate(baselinePath string, embedded bool, candidatePath string, minSpeed, maxAllocs, maxHeap float64) error {
	cand, err := loadSmoke(candidatePath, false, "")
	if err != nil {
		return err
	}
	base, err := loadSmoke(baselinePath, embedded, strings.Join(cand.figureIDs, "+"))
	if err != nil {
		return err
	}

	// Perf numbers are only comparable on the same workload.
	for _, axis := range []struct{ name, b, c string }{
		{"protocol", base.Protocol, cand.Protocol},
		{"figures", strings.Join(base.figureIDs, "+"), strings.Join(cand.figureIDs, "+")},
		{"duration", base.Duration, cand.Duration},
		{"seeds", strconv.Itoa(base.Seeds), strconv.Itoa(cand.Seeds)},
	} {
		if axis.b != axis.c {
			return fmt.Errorf("workloads differ on %s: baseline %q, candidate %q — not comparable",
				axis.name, axis.b, axis.c)
		}
	}
	if base.events == 0 || cand.events == 0 {
		return fmt.Errorf("empty record: baseline %d events, candidate %d", base.events, cand.events)
	}
	if cand.events != base.events {
		// Event totals are deterministic per config+seed; a mismatch
		// means the schedule changed (an intentional behaviour change
		// regenerates the baseline). Still gate on throughput — that is
		// the number this gate exists to protect.
		fmt.Printf("note: event totals differ (baseline %d, candidate %d); schedule changed since the baseline was recorded\n",
			base.events, cand.events)
	}

	speedRatio := cand.eventsPerSec / base.eventsPerSec
	fmt.Printf("events/sec: baseline %.0f, candidate %.0f (%.2fx, floor %.2fx)\n",
		base.eventsPerSec, cand.eventsPerSec, speedRatio, minSpeed)
	failed := false
	if speedRatio < minSpeed {
		fmt.Printf("FAIL: throughput regression below the %.2fx floor\n", minSpeed)
		failed = true
	}
	if base.MallocsPerEvent > 0 && cand.MallocsPerEvent > 0 {
		allocRatio := cand.MallocsPerEvent / base.MallocsPerEvent
		fmt.Printf("mallocs/event: baseline %.2f, candidate %.2f (%.2fx, ceiling %.2fx)\n",
			base.MallocsPerEvent, cand.MallocsPerEvent, allocRatio, maxAllocs)
		if allocRatio > maxAllocs {
			fmt.Printf("FAIL: allocation-rate regression above the %.2fx ceiling\n", maxAllocs)
			failed = true
		}
	}
	// Memory ceiling: only when both records carry heap measurements
	// (the huge family); a baseline without them gates throughput only.
	if base.HeapBytesPerNode > 0 && cand.HeapBytesPerNode > 0 {
		heapRatio := cand.HeapBytesPerNode / base.HeapBytesPerNode
		fmt.Printf("heap bytes/node: baseline %.0f, candidate %.0f (%.2fx, ceiling %.2fx)\n",
			base.HeapBytesPerNode, cand.HeapBytesPerNode, heapRatio, maxHeap)
		if heapRatio > maxHeap {
			fmt.Printf("FAIL: per-node memory regression above the %.2fx ceiling\n", maxHeap)
			failed = true
		}
	} else if base.HeapBytesPerNode > 0 {
		fmt.Println("note: baseline carries heap measurements but candidate does not; memory ceiling skipped")
	}
	if failed {
		return fmt.Errorf("bench regression gate failed against %s", baselinePath)
	}
	fmt.Println("bench gate passed")
	return nil
}
