package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// gatedWorkloads are the workloads BENCHMARK.json lists, see workloads.go.
var gatedWorkloads = []string{wlPaper, wlLive}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the harness's own
// tables: workloads, metric names, units, directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness gates %d", len(f.Workloads), len(gatedWorkloads))
	}
	for i, name := range gatedWorkloads {
		w, err := buildWorkload(name, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if f.Workloads[i].Name != name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", name)
		}
	}
	check := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(file), len(table))
			return
		}
		seen := map[string]bool{}
		for i, d := range table {
			got := file[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(endToEnd) != 12 {
		t.Errorf("%d end-to-end metrics, want 12", len(endToEnd))
	}
	if last := endToEnd[len(endToEnd)-1]; last.Name != "setup_s" || last.Unit != "s" || last.Better != lower {
		t.Errorf("the last end-to-end metric is %+v, want setup_s in s, lower is better", last)
	}
}

// TestQuickPassEndToEnd runs the five workloads at smoke sizes, two
// untraced passes and the traced one, and checks what the harness emits.
func TestQuickPassEndToEnd(t *testing.T) {
	out := t.TempDir()
	o, _, err := parseFlags([]string{"-quick", "-passes", "2", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	res, err := run(o, &report)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.failed(); n != 0 {
		t.Fatalf("%d operations failed:\n%s", n, report.String())
	}
	if !res.Manifest.Quick || res.Manifest.Passes != 2 || len(res.Manifest.Workloads) != len(workloadNames) {
		t.Errorf("manifest %+v: want quick, 2 passes, %d workloads", res.Manifest, len(workloadNames))
	}

	// Every emitted name is well formed and listed in BENCHMARK.json, and
	// every listed name is emitted on every workload.
	f := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, d := range append(f.EndToEnd, f.PerLayer...) {
		listed[d.Name] = true
	}
	for _, p := range res.Passes {
		want := endToEnd
		if p.Traced {
			want = perLayer
		}
		if len(p.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d defined", p.Workload, p.Traced, len(p.Metrics), len(want))
		}
		for name := range p.Metrics {
			if !nameRE.MatchString(name) || !listed[name] {
				t.Errorf("%s: emitted metric %q is malformed or not in BENCHMARK.json", p.Workload, name)
			}
		}
		for _, d := range want {
			if _, ok := p.Metrics[d.Name]; !ok {
				t.Errorf("%s traced=%v: metric %s missing", p.Workload, p.Traced, d.Name)
			}
		}
		if !p.Traced {
			for _, d := range endToEnd {
				if !(p.Metrics[d.Name] > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", p.Workload, d.Name, p.Metrics[d.Name])
				}
			}
		}
	}

	// Two passes give equal fingerprints, and so does the traced pass:
	// tracing is observe-only. (A mismatch is also a failed operation.)
	for _, name := range workloadNames {
		var prints []map[string]string
		for _, p := range res.Passes {
			if p.Workload == name {
				prints = append(prints, p.Fingerprints)
			}
		}
		if len(prints) != 3 {
			t.Fatalf("%s: %d passes, want 2 untraced + 1 traced", name, len(prints))
		}
		if name != wlLive && len(prints[0]) == 0 {
			t.Errorf("%s: no fingerprints", name)
		}
		for i, fp := range prints[1:] {
			for key, v := range prints[0] {
				if fp[key] != v {
					t.Errorf("%s pass %d: fingerprint of %s is %s, first pass had %s", name, i+1, key, fp[key], v)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("span file: %v", err)
		}
	}

	// Quick results are labelled, and -compare refuses them.
	if !strings.Contains(report.String(), "QUICK") {
		t.Error("report of a -quick run is not labelled")
	}
	results := filepath.Join(out, "results.json")
	if _, err := compareResults(&bytes.Buffer{}, results, results); err == nil {
		t.Error("-compare accepted -quick results")
	}

	// The driver's contract line names exactly the defined metrics.
	for _, traced := range []bool{false, true} {
		line, err := contractLine(res, wlPaper, traced)
		if err != nil {
			t.Fatal(err)
		}
		var obj struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("contract line %s: %v", line, err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if obj.Correct == nil || !*obj.Correct || obj.Failed == nil || obj.Attempted < 1 || len(obj.Metrics) != len(want) {
			t.Errorf("contract line traced=%v: %s", traced, line)
		}
		for _, d := range want {
			if m, ok := obj.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("contract line traced=%v: metric %s missing or mis-typed", traced, d.Name)
			}
		}
	}
}

// TestHostRef checks that the host reference does the same work on every
// slice sequence (so only the host moves its time) and that take reports
// the median against the nominal slice time and starts afresh.
func TestHostRef(t *testing.T) {
	a, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	a.sample(2)
	b.sample(1)
	b.sample(1)
	if a.rng != b.rng || len(a.heap) != refPending || a.heap[0] != b.heap[0] || a.nodes[a.heap[0].node] != b.nodes[b.heap[0].node] {
		t.Error("two references that ran two slices each are in different states")
	}
	if len(a.slices) != 2 || a.slices[0] <= 0 {
		t.Fatalf("slices %v, want two positive times", a.slices)
	}
	a.slices = []float64{3 * refNominalNS, 1 * refNominalNS, 2 * refNominalNS}
	if got := a.take(); got != 2 {
		t.Errorf("take = %v, want the median slowdown 2", got)
	}
	if got := a.take(); got != 1 {
		t.Errorf("take without slices = %v, want 1", got)
	}
}

// TestAttributionLeafMostLayer pins the profile attribution rule on
// synthetic stacks (leaf first).
func TestAttributionLeafMostLayer(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"malloc under aodv under node under mac", []string{
			"runtime.mallocgc", "runtime.newobject",
			"anongossip/internal/aodv.(*Router).installRoute", "anongossip/internal/aodv.(*Router).onHello",
			"anongossip/internal/node.(*Stack).deliver", "anongossip/internal/runtime/simrt.New.func1",
			"anongossip/internal/mac.(*DCF).onData", "anongossip/internal/radio.(*Medium).finishTx",
			"anongossip/internal/sim.(*Scheduler).Run", "anongossip/internal/scenario.Run", "main.timedRun",
		}, "aodv"},
		{"unlisted package charges its caller", []string{
			"anongossip/internal/metrics.(*ChannelCounters).ObserveTx", "anongossip/internal/mac.(*DCF).transmitData",
			"anongossip/internal/sim.(*Scheduler).Run",
		}, "mac"},
		{"runtimes are named by their own directory", []string{
			"runtime.chanrecv", "anongossip/internal/runtime/netrt.(*Node).loop", "runtime.goexit",
		}, "netrt"},
		{"map access inside the kernel", []string{"runtime.mapaccess2", "anongossip/internal/sim.(*Scheduler).fire"}, "sim"},
		{"collector worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, layerGC},
		{"assist inside a layer stays with the layer", []string{
			"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "anongossip/internal/pkt.DecodeFrame",
		}, "pkt"},
		{"harness frames", []string{"main.(*liveRun).onDeliver", "anongossip/bench.helper"}, layerOther},
		{"empty", nil, layerOther},
	} {
		if got := attributeStack(c.stack); got != c.want {
			t.Errorf("%s: attributed to %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareVerdicts feeds -compare's rule hand-made pairs.
func TestCompareVerdicts(t *testing.T) {
	timed := metricDef{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "events_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	exact := metricDef{Name: "delivery_ratio", Unit: "one_plus_ratio", Better: higher, Bound: 0.03, Exact: true}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98}
	noisy := []float64{10, 12, 8, 11, 9, 12.5, 7.5, 10.5, 9.5, 11.5}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"win: every pair faster by 20%", timed, steady, shift(steady, 0.8), verdictBetter},
		{"loss: every pair slower by 20%", timed, steady, shift(steady, 1.2), verdictWorse},
		{"tie: identical runs", timed, steady, steady, verdictUnchanged},
		{"within noise: 0.2% shift", timed, steady, shift(steady, 1.002), verdictUnchanged},
		{"every pair slower, but by less than the bound", timed, steady, shift(steady, 1.05), verdictUnchanged},
		{"median past the bound on a minority of pairs", timed, steady, append(shift(steady[:6], 1.3), steady[6:]...), verdictUnresolved},
		{"spread wider than the gap", timed, noisy, shift(noisy, 0.97), verdictUnresolved},
		{"noisy parent, but every run of the change is clear of it", timed, noisy, shift(steady, 0.5), verdictBetter},
		{"higher is better: rate up 20%", rate, steady, shift(steady, 1.2), verdictBetter},
		{"higher is better: rate down 20%", rate, steady, shift(steady, 0.8), verdictWorse},
		{"exact metric equal", exact, []float64{1.97, 1.97}, []float64{1.97, 1.97}, verdictUnchanged},
		{"exact metric moved down", exact, []float64{1.97, 1.97}, []float64{1.96, 1.96}, verdictWorse},
		{"exact metric moved up", exact, []float64{1.97, 1.97}, []float64{1.98, 1.98}, verdictBetter},
	} {
		if got, _ := judge(c.d, c.d.Exact, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// End to end on two hand-made result files.
	dir := t.TempDir()
	write := func(name string, wall []float64) string {
		res := results{Manifest: manifest{GitSHA: name, BaseSeed: 1}}
		for i, v := range wall {
			res.Passes = append(res.Passes, &passResult{Workload: wlPaper, Pass: i,
				Metrics:      map[string]float64{"wall_s": v, "delivery_ratio": 1.97},
				Fingerprints: map[string]string{"maodv+gossip/1": "abc"}})
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath, newPath := write("old", steady), write("new", shift(steady, 1.4)) // past wall_s's 25% bound
	var buf bytes.Buffer
	worse, err := compareResults(&buf, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !worse || !strings.Contains(text, verdictWorse) || !strings.Contains(text, "1.4000x of 10 s") ||
		!strings.Contains(text, "0% of 10") || !strings.Contains(text, "1 identical, 0 differ") {
		t.Errorf("compare output lacks the loss, the ratio with its base, the pairs won or the fingerprints:\n%s", text)
	}
}
