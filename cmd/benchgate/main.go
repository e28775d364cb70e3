// Command benchgate is the bench regression gate and the generator of
// the repo's committed perf baselines (the BENCH_*.json files).
//
// Gate mode (the CI path) compares a fresh `agbench -json` record
// against the committed baseline and fails on a throughput or
// allocation-rate regression:
//
//	agbench -fig dense -dense-nodes 100 -dense-max 20 -seeds 1 \
//	        -duration 75s -json fresh.json
//	benchgate -baseline BENCH_PR7.json -candidate fresh.json
//
// The gate compares sweep-wide events/sec (candidate must reach
// -min-speed-ratio of baseline, default 0.5 — wide enough for shared
// CI runners, tight enough to catch an accidental O(n) slip) and
// mallocs/event (candidate must stay under -max-allocs-ratio of
// baseline, default 1.5). It refuses to compare records from different
// workloads: protocol, figure set, seeds, duration and event-queue
// kind must match — the baseline may embed one smoke record per queue
// kind, and the gate picks the one matching the candidate so quad and
// cal numbers are only ever compared like for like.
//
// Raw-baseline mode gates two agbench -json records produced in the
// same run against each other — no committed BENCH_*.json involved.
// CI uses it as the metrics-overhead gate: one dense sweep without
// sampling, one with `-metrics`, and the sampled run must keep at
// least -min-speed-ratio of the plain run's events/sec:
//
//	benchgate -raw-baseline plain.json -candidate sampled.json \
//	          -min-speed-ratio 0.9
//
// Record mode regenerates the committed baseline: it runs the queue
// matrix (every -queue kind at every -matrix-nodes count,
// constant-density large-scale configs) and embeds the smoke record(s)
// written by agbench:
//
//	benchgate -record BENCH_PR7.json -smoke quad.json,cal.json \
//	          -matrix-nodes 1000,10000 -queue quad,cal -duration 20s
//
// Matrix rows at the same node count execute bit-identical schedules
// (asserted by the scenario differential tests), so their wall-clock
// ratio isolates the queue under test: SpeedupVsQuad is the quad row's
// wall time over this row's. Recording fails if the calendar queue
// does not reach -min-cal-speedup of the quad baseline at the largest
// node count, so the committed baseline always witnesses the speedup
// it claims. The record carries the host's CPU count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anongossip/internal/scenario"
	"anongossip/internal/sim"
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
	Index           string          `json:"index"`
	Queue           string          `json:"queue"`
	RxModel         string          `json:"rxmodel"`
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

	// Derived from Figures at load time.
	figureIDs    []string
	events       uint64
	wallSeconds  float64
	eventsPerSec float64
}

// matrixRow is one queue-kind measurement.
type matrixRow struct {
	Nodes        int     `json:"nodes"`
	Queue        string  `json:"queue"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SpeedupVsQuad is the quad-queue row's wall time over this row's
	// wall time at the same node count (1.0 for quad rows).
	SpeedupVsQuad float64 `json:"speedup_vs_quad,omitempty"`
}

// baseline is the committed BENCH_*.json schema.
type baseline struct {
	GoVersion string `json:"go_version"`
	// CPUs is the core count of the recording host.
	CPUs        int    `json:"cpus"`
	Note        string `json:"note,omitempty"`
	SimDuration string `json:"sim_duration"`
	// Matrix is the queue matrix; the key predates the queue
	// axis and stays so committed records keep parsing.
	Matrix []matrixRow `json:"scheduler_matrix"`
	// Smoke is the agbench -json record the CI gate compares against
	// (historical single-record schema, kept readable for old files).
	Smoke json.RawMessage `json:"smoke_baseline,omitempty"`
	// Smokes holds one agbench -json record per event-queue kind; the
	// gate picks the record whose queue matches the candidate's.
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
		record       = fs.String("record", "", "write a new baseline to this file instead of gating")
		smokePath    = fs.String("smoke", "", "comma-separated agbench -json records to embed in the -record baseline (one per queue kind)")
		matrixNodes  = fs.String("matrix-nodes", "1000,10000", "comma-separated node counts for the -record queue matrix")
		queueList    = fs.String("queue", "quad,cal", "comma-separated event-queue kinds for the -record queue matrix: "+sim.QueueNames())
		duration     = fs.Duration("duration", 20*time.Second, "simulated time per -record matrix run")
		minCalSpeed  = fs.Float64("min-cal-speedup", 1.2, "fail -record if the cal queue's events/sec at the largest node count falls below this multiple of the quad reference (the -prev baseline's quad row, or this run's when no -prev is given)")
		prevPath     = fs.String("prev", "", "previous committed baseline whose quad row anchors the -min-cal-speedup check")
		note         = fs.String("note", "", "free-form host note stored in the -record baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return runRecord(*record, *smokePath, *matrixNodes, *queueList, *duration, *minCalSpeed, *prevPath, *note)
	}
	if *baselinePath != "" && *rawBaseline != "" {
		return fmt.Errorf("-baseline and -raw-baseline are mutually exclusive")
	}
	base, embedded := *baselinePath, true
	if *rawBaseline != "" {
		base, embedded = *rawBaseline, false
	}
	if base == "" || *candidate == "" {
		return fmt.Errorf("need -baseline or -raw-baseline, and -candidate (or -record); see -help")
	}
	return runGate(base, embedded, *candidate, *minSpeed, *maxAllocs, *maxHeap)
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseQueues(csv string) ([]sim.QueueKind, error) {
	var out []sim.QueueKind
	for _, f := range strings.Split(csv, ",") {
		k, err := sim.ParseQueueKind(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// --- record mode ---

// quadAnchor pulls the quad events/sec at the given node count out of
// a previous committed baseline. Rows recorded before the queue axis
// existed carry an empty queue name; those were quad. Baselines up to
// PR 9 also carry rows of a since-removed parallel kernel, told apart
// by a "scheduler" key that is "serial" on the rows wanted here.
func quadAnchor(path string, nodes int) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var prev struct {
		Matrix []struct {
			matrixRow
			Scheduler string `json:"scheduler"`
		} `json:"scheduler_matrix"`
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return 0, fmt.Errorf("%s does not parse as a baseline: %w", path, err)
	}
	for _, r := range prev.Matrix {
		if r.Nodes == nodes && (r.Scheduler == "serial" || r.Scheduler == "") &&
			(r.Queue == sim.QueueQuad.String() || r.Queue == "") {
			return r.EventsPerSec, nil
		}
	}
	return 0, fmt.Errorf("%s has no quad row at %d nodes", path, nodes)
}

func runRecord(outPath, smokePaths, matrixNodes, queueList string, duration time.Duration, minCalSpeed float64, prevPath, note string) error {
	nodes, err := parseInts(matrixNodes)
	if err != nil {
		return fmt.Errorf("-matrix-nodes: %w", err)
	}
	queues, err := parseQueues(queueList)
	if err != nil {
		return fmt.Errorf("-queue: %w", err)
	}

	b := baseline{
		GoVersion:   runtime.Version(),
		CPUs:        runtime.NumCPU(),
		Note:        note,
		SimDuration: duration.String(),
	}
	if smokePaths != "" {
		for _, p := range strings.Split(smokePaths, ",") {
			p = strings.TrimSpace(p)
			data, err := os.ReadFile(p)
			if err != nil {
				return fmt.Errorf("smoke record: %w", err)
			}
			var probe smokeRecord
			if err := json.Unmarshal(data, &probe); err != nil {
				return fmt.Errorf("smoke record %s does not parse: %w", p, err)
			}
			b.Smokes = append(b.Smokes, json.RawMessage(data))
		}
	}

	measure := func(n int, queue sim.QueueKind) (matrixRow, error) {
		cfg := scenario.ShortenedData(scenario.LargeScaleConfig(n), duration)
		cfg.EventQueue = queue
		cfg.Seed = 1
		start := time.Now()
		res, err := scenario.Run(cfg)
		if err != nil {
			return matrixRow{}, err
		}
		wall := time.Since(start).Seconds()
		row := matrixRow{Nodes: n, Queue: queue.String(), Events: res.Events, WallSeconds: wall}
		if wall > 0 {
			row.EventsPerSec = float64(res.Events) / wall
		}
		return row, nil
	}

	// Events/sec per node count for the headline queue kinds; the
	// largest node count's cal rate is the gated claim.
	quadRate := make(map[int]float64)
	calRate := make(map[int]float64)

	for _, n := range nodes {
		var events uint64
		var quadWall float64
		for _, queue := range queues {
			row, err := measure(n, queue)
			if err != nil {
				return fmt.Errorf("%d nodes %s: %w", n, queue, err)
			}
			if events == 0 {
				events = row.Events
			} else if row.Events != events {
				return fmt.Errorf("%d nodes %s executed %d events, first queue %d — bit-identity broken",
					n, queue, row.Events, events)
			}
			switch queue {
			case sim.QueueQuad:
				quadWall = row.WallSeconds
				quadRate[n] = row.EventsPerSec
			case sim.QueueCal:
				calRate[n] = row.EventsPerSec
			}
			if quadWall > 0 && row.WallSeconds > 0 {
				row.SpeedupVsQuad = quadWall / row.WallSeconds
			}
			fmt.Printf("%6d nodes  %-4s %10.0f events/sec  (%.2fx quad)\n",
				n, queue, row.EventsPerSec, row.SpeedupVsQuad)
			b.Matrix = append(b.Matrix, row)
		}
	}

	// The headline claim the baseline exists to witness: at the largest
	// node count, the calendar queue's events/sec must reach
	// -min-cal-speedup of the quad reference — the previous committed
	// baseline's quad row when -prev names one (the cross-PR
	// acceptance), this run's otherwise — or the recording is refused.
	if len(nodes) > 0 && minCalSpeed > 0 {
		maxN := nodes[0]
		for _, n := range nodes[1:] {
			if n > maxN {
				maxN = n
			}
		}
		if cal, ok := calRate[maxN]; ok {
			anchor, anchorName := quadRate[maxN], "this run's quad"
			if prevPath != "" {
				a, err := quadAnchor(prevPath, maxN)
				if err != nil {
					return fmt.Errorf("-prev: %w", err)
				}
				anchor, anchorName = a, prevPath+" quad"
			}
			if anchor > 0 {
				speedup := cal / anchor
				fmt.Printf("cal at %d nodes: %.2fx vs %s (floor %.2fx)\n",
					maxN, speedup, anchorName, minCalSpeed)
				if speedup < minCalSpeed {
					return fmt.Errorf("cal queue reached only %.2fx of %s at %d nodes, below the %.2fx floor — not recording a baseline that contradicts its own claim",
						speedup, anchorName, maxN, minCalSpeed)
				}
			}
		}
	}

	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// --- gate mode ---

// loadSmoke parses one agbench -json record. When embedded is true the
// path names a committed baseline, and wantQueue/wantFigs select the
// embedded smoke record recorded under that event-queue kind and
// figure set — quad candidates gate against the quad baseline, cal
// against cal, dense against dense, huge against huge, never across.
func loadSmoke(path string, embedded bool, wantQueue, wantFigs string) (*smokeRecord, error) {
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
			have = append(have, probe.Queue+"/"+figs)
			if probe.Queue == wantQueue && figs == wantFigs {
				data = raw
				break
			}
		}
		if data == nil {
			return nil, fmt.Errorf("%s has no smoke record for queue %q figures %q (recorded: %s) — not comparable across queue kinds or figure sets",
				path, wantQueue, wantFigs, strings.Join(have, ", "))
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
	cand, err := loadSmoke(candidatePath, false, "", "")
	if err != nil {
		return err
	}
	base, err := loadSmoke(baselinePath, embedded, cand.Queue, strings.Join(cand.figureIDs, "+"))
	if err != nil {
		return err
	}

	// Perf numbers are only comparable on the same workload.
	for _, axis := range []struct{ name, b, c string }{
		{"protocol", base.Protocol, cand.Protocol},
		{"figures", strings.Join(base.figureIDs, "+"), strings.Join(cand.figureIDs, "+")},
		{"duration", base.Duration, cand.Duration},
		{"seeds", strconv.Itoa(base.Seeds), strconv.Itoa(cand.Seeds)},
		{"queue", base.Queue, cand.Queue},
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
