package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeAgbenchRecord builds an agbench -json record with the given
// sweep-wide throughput and allocation rate.
func fakeAgbenchRecord(events uint64, wallSeconds, mallocsPerEvent float64) string {
	return fmt.Sprintf(`{
		"go_version": "go-test",
		"protocol": "maodv+gossip",
		"index": "grid", "queue": "quad", "rxmodel": "batch",
		"seeds": 1, "duration": "75s",
		"figures": [{"figure": "dense", "points": [
			{"x": 20, "events": %d, "wall_seconds": %g}
		]}],
		"total_events": %d,
		"mallocs_per_event": %g
	}`, events, wallSeconds, events, mallocsPerEvent)
}

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wrapBaseline embeds an agbench record the way -record does.
func wrapBaseline(t *testing.T, smoke string) string {
	t.Helper()
	b := baseline{GoVersion: "go-test", CPUs: 1, Smoke: json.RawMessage(smoke)}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestGatePassesOnEqualPerf(t *testing.T) {
	smoke := fakeAgbenchRecord(1_000_000, 2.0, 40)
	base := writeFile(t, "base.json", wrapBaseline(t, smoke))
	cand := writeFile(t, "cand.json", smoke)
	if err := run([]string{"-baseline", base, "-candidate", cand}); err != nil {
		t.Fatalf("identical records failed the gate: %v", err)
	}
}

func TestGateFailsOnThroughputRegression(t *testing.T) {
	base := writeFile(t, "base.json",
		wrapBaseline(t, fakeAgbenchRecord(1_000_000, 2.0, 40)))
	// Same events, 3x the wall time: 0.33x throughput, under the 0.5 floor.
	cand := writeFile(t, "cand.json", fakeAgbenchRecord(1_000_000, 6.0, 40))
	err := run([]string{"-baseline", base, "-candidate", cand})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("3x slowdown passed the gate: %v", err)
	}
	// A looser floor lets the same record through.
	if err := run([]string{"-baseline", base, "-candidate", cand,
		"-min-speed-ratio", "0.25"}); err != nil {
		t.Fatalf("loosened floor still failed: %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	base := writeFile(t, "base.json",
		wrapBaseline(t, fakeAgbenchRecord(1_000_000, 2.0, 40)))
	// Same speed, double the allocation rate: over the 1.5x ceiling.
	cand := writeFile(t, "cand.json", fakeAgbenchRecord(1_000_000, 2.0, 80))
	err := run([]string{"-baseline", base, "-candidate", cand})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("2x allocation rate passed the gate: %v", err)
	}
	if err := run([]string{"-baseline", base, "-candidate", cand,
		"-max-allocs-ratio", "2.5"}); err != nil {
		t.Fatalf("loosened ceiling still failed: %v", err)
	}
}

func TestGateRejectsMismatchedWorkloads(t *testing.T) {
	base := writeFile(t, "base.json",
		wrapBaseline(t, fakeAgbenchRecord(1_000_000, 2.0, 40)))
	other := strings.Replace(fakeAgbenchRecord(1_000_000, 2.0, 40),
		`"duration": "75s"`, `"duration": "600s"`, 1)
	cand := writeFile(t, "cand.json", other)
	err := run([]string{"-baseline", base, "-candidate", cand})
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("mismatched workloads compared: %v", err)
	}
}

func TestGateRejectsBadInput(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("no flags accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-baseline", "no-such.json", "-candidate", "no-such.json"}); err == nil {
		t.Fatal("missing files accepted")
	}
	garbage := writeFile(t, "bad.json", "{not json")
	if err := run([]string{"-baseline", garbage, "-candidate", garbage}); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	// A baseline without an embedded smoke record cannot gate.
	empty := writeFile(t, "empty.json", `{"go_version": "go-test", "cpus": 1}`)
	cand := writeFile(t, "cand.json", fakeAgbenchRecord(1, 1, 1))
	if err := run([]string{"-baseline", empty, "-candidate", cand}); err == nil {
		t.Fatal("baseline without smoke record accepted")
	}
	if err := run([]string{"-record", "out.json", "-matrix-nodes", "zero"}); err == nil {
		t.Fatal("bad matrix-nodes accepted")
	}
	if err := run([]string{"-record", "out.json", "-queue", "bogus"}); err == nil {
		t.Fatal("bad queue kind accepted")
	}
	if err := run([]string{"-record", filepath.Join(t.TempDir(), "out.json"),
		"-smoke", "no-such.json"}); err == nil {
		t.Fatal("missing smoke record accepted")
	}
}

// TestGateRawBaseline pins the same-run comparison mode used by the CI
// metrics-overhead gate: two raw agbench records gate directly against
// each other, no committed baseline wrapper, with the custom speed
// floor applied.
func TestGateRawBaseline(t *testing.T) {
	plain := writeFile(t, "plain.json", fakeAgbenchRecord(1_000_000, 2.0, 40))
	// 5% slower than plain: passes a 0.9 floor, fails a 0.99 floor.
	sampled := writeFile(t, "sampled.json", fakeAgbenchRecord(1_000_000, 2.1, 40))
	if err := run([]string{"-raw-baseline", plain, "-candidate", sampled,
		"-min-speed-ratio", "0.9"}); err != nil {
		t.Fatalf("5%% overhead failed the 0.9x floor: %v", err)
	}
	err := run([]string{"-raw-baseline", plain, "-candidate", sampled,
		"-min-speed-ratio", "0.99"})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("5%% overhead passed the 0.99x floor: %v", err)
	}
	// The two baseline flags cannot be combined.
	err = run([]string{"-baseline", plain, "-raw-baseline", plain, "-candidate", sampled})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-baseline + -raw-baseline accepted: %v", err)
	}
}

// TestGateRejectsCrossQueue pins the like-for-like rule: a candidate
// recorded under one queue kind must not gate against a baseline that
// only carries another kind's smoke record.
func TestGateRejectsCrossQueue(t *testing.T) {
	base := writeFile(t, "base.json",
		wrapBaseline(t, fakeAgbenchRecord(1_000_000, 2.0, 40)))
	calCand := strings.Replace(fakeAgbenchRecord(1_000_000, 2.0, 40),
		`"queue": "quad"`, `"queue": "cal"`, 1)
	cand := writeFile(t, "cand.json", calCand)
	err := run([]string{"-baseline", base, "-candidate", cand})
	if err == nil || !strings.Contains(err.Error(), "no smoke record for queue") {
		t.Fatalf("cal candidate gated against quad-only baseline: %v", err)
	}
}

// TestRecordSmallMatrix runs record mode on a tiny matrix and checks the
// written baseline parses, carries one row per queue kind with matching
// event counts, and embeds the smoke record. The cal-speedup floor is
// disabled: a 100-node matrix is far below the scale where the
// calendar queue's claim applies.
func TestRecordSmallMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	smoke := writeFile(t, "smoke.json", fakeAgbenchRecord(1_000_000, 2.0, 40))
	out := filepath.Join(t.TempDir(), "baseline.json")
	err := run([]string{"-record", out, "-smoke", smoke,
		"-matrix-nodes", "100", "-queue", "quad,cal",
		"-duration", "20s", "-min-cal-speedup", "0", "-note", "test host"})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline does not parse: %v", err)
	}
	if b.CPUs < 1 || b.Note != "test host" || len(b.Smokes) != 1 {
		t.Fatalf("baseline metadata incomplete: %+v", b)
	}
	if len(b.Matrix) != 2 { // one row per queue kind
		t.Fatalf("matrix rows = %d, want 2", len(b.Matrix))
	}
	for i, wantQueue := range []string{"quad", "cal"} {
		row := b.Matrix[i]
		if row.Queue != wantQueue {
			t.Fatalf("row %d queue = %q, want %q: %+v", i, row.Queue, wantQueue, row)
		}
		if row.Events == 0 || row.EventsPerSec <= 0 {
			t.Fatalf("row %d incomplete: %+v", i, row)
		}
		if row.Events != b.Matrix[0].Events {
			t.Fatalf("row %d events %d diverge from quad %d", i, row.Events, b.Matrix[0].Events)
		}
		if row.SpeedupVsQuad <= 0 {
			t.Fatalf("row %d missing like-for-like queue ratio: %+v", i, row)
		}
	}
	// The freshly recorded baseline must gate its own smoke record.
	cand := writeFile(t, "cand.json", fakeAgbenchRecord(1_000_000, 2.0, 40))
	if err := run([]string{"-baseline", out, "-candidate", cand}); err != nil {
		t.Fatalf("self-gate failed: %v", err)
	}
}

// TestCommittedBaselineStillReadable pins compatibility with the last
// committed baseline, which predates the removal of the "scheduler" and
// "workers" keys: the -prev anchor must pick the serial quad row (not
// another row of the same queue), and gate mode must accept a candidate
// without those keys against the embedded records that carry them.
func TestCommittedBaselineStillReadable(t *testing.T) {
	const committed = "../../BENCH_PR9.json"
	got, err := quadAnchor(committed, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got < 929755 || got > 929756 {
		t.Fatalf("quad anchor at 10000 nodes = %.0f, want the serial row's 929756", got)
	}
	// Row order must not matter: only the "serial" row anchors.
	reordered := writeFile(t, "prev.json", `{"scheduler_matrix": [
		{"nodes": 100, "queue": "quad", "scheduler": "other", "events_per_sec": 1},
		{"nodes": 100, "queue": "quad", "scheduler": "serial", "events_per_sec": 2}]}`)
	if got, err := quadAnchor(reordered, 100); err != nil || got != 2 {
		t.Fatalf("quad anchor = %v, %v; want the serial row's 2", got, err)
	}
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(b.Smokes[0], &rec); err != nil {
		t.Fatal(err)
	}
	delete(rec, "scheduler")
	delete(rec, "workers")
	stripped, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	cand := writeFile(t, "cand.json", string(stripped))
	if err := run([]string{"-baseline", committed, "-candidate", cand}); err != nil {
		t.Fatalf("gate against %s: %v", committed, err)
	}
}

// TestRecordRefusesLowCalSpeedup checks the record-time enforcement: a
// floor no real host can reach makes -record refuse to write, so a
// committed baseline can never contradict the speedup it claims.
func TestRecordRefusesLowCalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := filepath.Join(t.TempDir(), "baseline.json")
	err := run([]string{"-record", out,
		"-matrix-nodes", "100", "-queue", "quad,cal",
		"-duration", "20s", "-min-cal-speedup", "100"})
	if err == nil || !strings.Contains(err.Error(), "below the 100.00x floor") {
		t.Fatalf("unreachable cal-speedup floor did not refuse recording: %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("baseline written despite failed speedup floor")
	}
}
