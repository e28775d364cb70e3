package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest records everything needed to read a number in context.
type manifest struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	BaseSeed   int64  `json:"base_seed"`
	Passes     int    `json:"passes"`
	Traced     bool   `json:"traced"`
	// Quick marks smoke-sized results; -compare refuses them.
	Quick    bool    `json:"quick"`
	Started  string  `json:"started"`
	ElapsedS float64 `json:"elapsed_s"`
	// Workloads holds each workload's fully resolved definition: the
	// scenario.Config of every run, or the live cluster's parameters.
	Workloads map[string]workloadManifest `json:"workloads"`
}

type workloadManifest struct {
	Why  string      `json:"why"`
	Runs any         `json:"runs,omitempty"`
	Live *liveParams `json:"live,omitempty"`
}

// results is the content of results.json.
type results struct {
	Manifest manifest      `json:"manifest"`
	Passes   []*passResult `json:"passes"`
	// Summary gives, per workload and metric, the median and quartiles
	// over the untraced passes (end-to-end metrics) or the traced pass's
	// value (per-layer metrics).
	Summary map[string]map[string]summary `json:"summary"`
}

// failed is the number of failed operations over all passes.
func (res *results) failed() int {
	n := 0
	for _, p := range res.Passes {
		n += p.Failed
	}
	return n
}

func inRepository() bool {
	for _, dir := range []string{".git", "../.git"} {
		if _, err := os.Stat(dir); err == nil {
			return true
		}
	}
	return false
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *runner) results(elapsed time.Duration) *results {
	o := r.o
	m := manifest{
		GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), BaseSeed: o.seed, Traced: o.traced || o.trace == 1, Quick: o.quick,
		Started: time.Now().Add(-elapsed).UTC().Format(time.RFC3339), ElapsedS: elapsed.Seconds(),
		Workloads: map[string]workloadManifest{},
	}
	// git is asked only when the harness runs inside the repository (from
	// its root or from bench/); the driver's checkout is not one, and there
	// the sha stays unknown.
	if inRepository() {
		if sha, err := gitOutput("rev-parse", "HEAD"); err == nil {
			m.GitSHA = sha
			status, _ := gitOutput("status", "--porcelain")
			m.GitDirty = status != ""
		}
	}
	for _, name := range o.workloads {
		w, err := buildWorkload(name, o.seed, o.quick)
		if err != nil {
			continue // parseFlags already resolved every name
		}
		wm := workloadManifest{Why: w.Why, Live: w.Live}
		if len(w.Runs) > 0 {
			wm.Runs = w.Runs
		}
		m.Workloads[name] = wm
	}
	values := map[string]map[string][]float64{}
	for _, p := range r.passes {
		if !p.Traced {
			m.Passes = max(m.Passes, p.Pass+1)
		}
		if values[p.Workload] == nil {
			values[p.Workload] = map[string][]float64{}
		}
		for k, v := range p.Metrics {
			values[p.Workload][k] = append(values[p.Workload][k], v)
		}
	}
	res := &results{Manifest: m, Passes: r.passes, Summary: map[string]map[string]summary{}}
	for wl, byMetric := range values {
		res.Summary[wl] = map[string]summary{}
		for k, vs := range byMetric {
			res.Summary[wl][k] = summarize(vs)
		}
	}
	return res
}

// printReport prints every metric by name with its unit, per workload.
func printReport(w io.Writer, res *results) {
	m := res.Manifest
	label := ""
	if m.Quick {
		label = "  [QUICK: smoke sizes, not comparable]"
	}
	fmt.Fprintf(w, "bench: git %s dirty=%v  %s  GOMAXPROCS=%d nproc=%d  %s  seed=%d%s\n",
		m.GitSHA, m.GitDirty, m.GoVersion, m.GOMAXPROCS, m.NProc, m.CPUModel, m.BaseSeed, label)
	names := make([]string, 0, len(res.Summary))
	for _, n := range workloadNames {
		if _, ok := res.Summary[n]; ok {
			names = append(names, n)
		}
	}
	for _, name := range names {
		attempted, failed, untraced := 0, 0, 0
		var notes []string
		readings := map[string]float64{}
		fps := map[string]string{}
		for _, p := range res.Passes {
			if p.Workload != name {
				continue
			}
			attempted += p.Attempted
			failed += p.Failed
			notes = append(notes, p.Failures...)
			if !p.Traced {
				untraced++
				for k, v := range p.Readings {
					readings[k] = v
				}
			}
			for k, v := range p.Fingerprints {
				fps[k] = v
			}
		}
		fmt.Fprintf(w, "\n== %s: %d untraced passes, %d operations attempted, %d failed\n", name, untraced, attempted, failed)
		for _, n := range notes {
			fmt.Fprintf(w, "   FAILED: %s\n", n)
		}
		sum := res.Summary[name]
		printDefs(w, sum, endToEnd)
		for _, k := range sortedKeys(readings) {
			fmt.Fprintf(w, "   (%s = %.6g)\n", k, readings[k])
		}
		printDefs(w, sum, perLayer)
		for _, k := range sortedKeys(fps) {
			fmt.Fprintf(w, "   fingerprint %-24s %s\n", k, fps[k])
		}
	}
	fmt.Fprintln(w)
}

func printDefs(w io.Writer, sum map[string]summary, defs []metricDef) {
	for _, d := range defs {
		s, ok := sum[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-28s %16.6g %-15s [q1 %.6g, q3 %.6g] n=%d (%s is better)\n",
			d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, d.Better)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine renders the driver's result object for one workload: the
// median over passes of every end-to-end metric, or the traced pass's
// per-layer metrics.
func contractLine(res *results, workload string, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, p := range res.Passes {
		out.Attempted += p.Attempted
	}
	out.Failed = res.failed()
	out.Correct = out.Failed == 0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := res.Summary[workload][d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		}
		out.Metrics[d.Name] = value{s.Median, d.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}
