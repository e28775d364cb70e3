package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"anongossip/internal/scenario"
)

func TestRunQuickFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A shrunken Fig. 8 run exercises the full path quickly.
	err := run([]string{"-fig", "8", "-seeds", "1", "-duration", "90s"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunQuickLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Capped at the smallest family member so the sweep stays quick.
	err := run([]string{"-fig", "large", "-x", "100", "-seeds", "1", "-duration", "75s"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunXSelectsPoints: -x runs only the listed points of the sweep,
// in the sweep's order whatever the list's.
func TestRunXSelectsPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runJSON(t, "-fig", "4", "-x", "0.3, 0.1", "-seeds", "1", "-duration", "61s")
	if len(rep.Figures) != 1 || rep.Figures[0].Figure != "4" {
		t.Fatalf("record figures wrong: %+v", rep.Figures)
	}
	var xs []float64
	for _, p := range rep.Figures[0].Points {
		xs = append(xs, p.X)
	}
	if !slices.Equal(xs, []float64{0.1, 0.3}) {
		t.Fatalf("points run = %v, want [0.1 0.3]", xs)
	}
}

// TestRunAblation drives one ablation of the sweep table end to end:
// -fig a3 runs the gossip-interval point it is given.
func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runJSON(t, "-fig", "a3", "-x", "1000", "-seeds", "1", "-duration", "75s")
	if len(rep.Figures) != 1 || rep.Figures[0].Figure != "a3" || len(rep.Figures[0].Points) != 1 {
		t.Fatalf("record figures wrong: %+v", rep.Figures)
	}
	if p := rep.Figures[0].Points[0]; p.X != 1000 || p.Treatment.Sent == 0 || p.Treatment.Mean <= 0 {
		t.Fatalf("record point incomplete: %+v", p)
	}
}

// TestRunStackProtocolFlag drives the stack-name -protocol flag: a
// composed stack is measured against its bare routing baseline.
func TestRunStackProtocolFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	err := run([]string{"-fig", "8", "-seeds", "1", "-duration", "90s", "-protocol", "flood+gossip"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// runJSON runs agbench with args plus a -json path and returns the
// parsed record.
func runJSON(t *testing.T, args ...string) jsonReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(append(args, "-json", path)); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("json record not written: %v", err)
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("json record does not parse: %v", err)
	}
	return rep
}

// TestRunDenseAndJSON drives the dense-traffic sweep with the -json
// record: the sweep must complete and the record must parse with the
// configuration axes and the point's delivery filled in.
func TestRunDenseAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runJSON(t, "-fig", "dense", "-dense-nodes", "100", "-x", "20",
		"-seeds", "1", "-duration", "75s")
	if rep.Protocol != "maodv+gossip" || rep.Baseline != "maodv" || rep.Seeds != 1 {
		t.Fatalf("record axes wrong: %+v", rep)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].Figure != "dense" || len(rep.Figures[0].Points) != 1 {
		t.Fatalf("record figures wrong: %+v", rep.Figures)
	}
	p := rep.Figures[0].Points[0]
	if p.X != 20 || p.Treatment.Sent == 0 || p.Baseline.Sent == 0 || p.Treatment.Mean <= 0 {
		t.Fatalf("record point incomplete: %+v", p)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-fig", "1"}); err == nil {
		t.Fatal("figure 1 accepted (paper has no such experiment)")
	}
	if err := run([]string{"-fig", "nine"}); err == nil {
		t.Fatal("non-numeric figure accepted")
	}
	if err := run([]string{"-duration", "10s"}); err == nil {
		t.Fatal("too-short duration accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// The implementation-selection flags, the per-family point caps and
	// the perf flags (cost is bench/'s to measure) are gone — even the
	// old default values fail flag parsing, which main turns into a
	// non-zero exit. An accepted row would start a sweep of minutes, so
	// each runs off the test goroutine and fails at a deadline instead.
	dir := t.TempDir()
	for _, removed := range [][]string{
		{"-workers", "2"}, {"-queue", "quad"}, {"-index", "grid"}, {"-rxmodel", "batch"},
		{"-large-max", "1000"}, {"-huge-min", "0"}, {"-huge-max", "100000"}, {"-dense-max", "60"},
		{"-cpuprofile", filepath.Join(dir, "cpu.pprof")}, {"-memprofile", filepath.Join(dir, "mem.pprof")},
		{"-huge-duration", "1s"}, {"-metrics-csv", filepath.Join(dir, "metrics.csv")},
	} {
		if err := runWithin(t, removed...); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("removed %s flag: got error %v, want a flag-parsing one", removed[0], err)
		}
	}
	// There is no huge sweep: its per-node heap is TestHugeMemoryPerNode's
	// and bench/'s to measure.
	if err := runWithin(t, "-fig", "huge", "-x", "10000", "-seeds", "1", "-duration", "61s"); err == nil ||
		!strings.Contains(err.Error(), "-fig") {
		t.Fatalf("-fig huge: got error %v, want one naming -fig", err)
	}
	// -x picks points of exactly one sweep, and only points it has.
	for _, bad := range [][]string{
		{"-fig", "large", "-x", "50"},
		{"-fig", "dense", "-x", "20,25"},
		{"-fig", "4", "-x", "fast"},
		{"-fig", "all", "-x", "100"},
		{"-fig", "8", "-x", "45"},
	} {
		if err := run(bad); err == nil || !strings.Contains(err.Error(), "-x") {
			t.Fatalf("%v: got error %v, want one naming -x", bad, err)
		}
	}
	// A run that never samples has no series to print: this panicked
	// before -metrics-window was checked at flag parsing.
	err := run([]string{"-fig", "large", "-x", "100", "-seeds", "1", "-duration", "75s",
		"-metrics", "-metrics-window", "0"})
	if err == nil || !strings.Contains(err.Error(), "-metrics-window") {
		t.Fatalf("-metrics with a zero window: got error %v, want one naming -metrics-window", err)
	}
	if err := run([]string{"-protocol", "carrier-pigeon"}); err == nil {
		t.Fatal("unknown stack accepted")
	}
	if err := run([]string{"-protocol", "maodv"}); err == nil {
		t.Fatal("recovery-less stack accepted as treatment")
	}
}

// runWithin runs agbench with args off the test goroutine and returns
// its error, failing the test if it has not returned within 10 s.
func runWithin(t *testing.T, args ...string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("run(%v) never returned", args)
		return nil
	}
}

// TestRunRejectsNonPositiveSeeds: a sweep needs at least one seed per
// point. -seeds 0 used to print tables of 0.00 % and exit 0, -seeds -1
// to panic in scenario.Seeds; both must fail naming the flag.
func TestRunRejectsNonPositiveSeeds(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		err := run([]string{"-fig", "8", "-seeds", n, "-duration", "75s"})
		if err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("-seeds %s: got error %v, want one naming -seeds", n, err)
		}
	}
}

// TestFigureDefinitionsComplete checks the line figures -fig all runs
// from the sweep table: exactly Figs. 2–7 (Fig. 8 is the goodput table),
// each once and complete.
func TestFigureDefinitionsComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range scenario.Sweeps() {
		if !s.Paper() {
			continue
		}
		if s.Apply == nil || len(s.Xs) == 0 || s.Title == "" {
			t.Fatalf("figure %s incomplete: %+v", s.ID, s)
		}
		if seen[s.ID] {
			t.Fatalf("figure %s duplicated", s.ID)
		}
		seen[s.ID] = true
	}
	if len(seen) != 6 {
		t.Fatalf("line figures = %d, want 6 (2..7; fig 8 is special-cased)", len(seen))
	}
	for _, id := range []string{"2", "3", "4", "5", "6", "7"} {
		if !seen[id] {
			t.Fatalf("figure %s missing", id)
		}
	}
}
