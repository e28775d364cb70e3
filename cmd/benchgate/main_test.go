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

// wrapBaseline embeds an agbench record the way the committed
// baselines do.
func wrapBaseline(t *testing.T, smoke string) string {
	t.Helper()
	b := baseline{Smoke: json.RawMessage(smoke)}
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
	// Record mode and its flags are gone: flag parsing fails.
	for _, removed := range []string{"-record", "-queue", "-matrix-nodes", "-min-cal-speedup", "-prev"} {
		if err := run([]string{removed, "x", "-baseline", empty, "-candidate", cand}); err == nil {
			t.Fatalf("removed %s flag accepted", removed)
		}
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

// TestCommittedBaselineStillReadable pins compatibility with the frozen
// committed baseline, whose embedded records carry keys agbench no
// longer writes ("scheduler", "workers", "queue", "index", "rxmodel")
// and include a calendar-queue record next to each quad one: gate mode
// must accept a candidate without those keys and compare it with the
// quad record of its figure set.
func TestCommittedBaselineStillReadable(t *testing.T) {
	const committed = "../../BENCH_PR9.json"
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
	for _, key := range []string{"scheduler", "workers", "queue", "index", "rxmodel"} {
		delete(rec, key)
	}
	stripped, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	cand := writeFile(t, "cand.json", string(stripped))
	if err := run([]string{"-baseline", committed, "-candidate", cand}); err != nil {
		t.Fatalf("gate against %s: %v", committed, err)
	}
	// Record order must not matter: with a twice-as-fast cal record
	// listed first, a candidate as fast as the quad record still sits at
	// 1.00x.
	quad := fakeAgbenchRecord(1_000_000, 2.0, 40)
	withQueue := func(rec, queue string) json.RawMessage {
		return json.RawMessage(strings.Replace(rec, `"seeds"`, `"queue": "`+queue+`", "seeds"`, 1))
	}
	mixed, err := json.Marshal(baseline{Smokes: []json.RawMessage{
		withQueue(fakeAgbenchRecord(1_000_000, 1.0, 40), "cal"), withQueue(quad, "quad")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", writeFile(t, "mixed.json", string(mixed)),
		"-candidate", writeFile(t, "quad.json", quad), "-min-speed-ratio", "0.99"}); err != nil {
		t.Fatalf("gate compared against the cal record: %v", err)
	}
}
