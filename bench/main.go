// Command bench is the repository's one benchmark: five named workloads
// (four simulated, one live), twelve end-to-end metrics and a traced pass
// that attributes host cost to layers. See README.md.
//
//	go run . [-workload a,b] [-passes N] [-seed S] [-no-traced] [-quick] [-out dir]
//	go run . -compare old.json new.json
//	bash run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   (driver contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workloads []string
	passes    int
	seed      int64
	traced    bool
	quick     bool
	out       string
	// seconds > 0 selects the driver's contract: one workload, as many
	// whole passes as fit, one JSON object as the last line of output.
	seconds int
	trace   int
}

func parseFlags(args []string) (*options, []string, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloads = fs.String("workload", "", "comma-separated workload names (default: all five)")
		passes    = fs.Int("passes", 3, "untraced passes per workload")
		seed      = fs.String("seed", "1", "base seed S; simulated runs use S, S+1, ...")
		traced    = fs.Bool("traced", true, "run the traced pass after the untraced ones")
		noTraced  = fs.Bool("no-traced", false, "skip the traced pass")
		quick     = fs.Bool("quick", false, "smoke sizes: same five names, each shrunk to well under a second; results are labelled and refused by -compare")
		out       = fs.String("out", "", "directory for results.json and trace-<workload>.json (default bench/out)")
		seconds   = fs.Int("seconds", 0, "driver contract: measure one workload for about this long")
		trace     = fs.Int("trace", 0, "driver contract: 0 prints the end-to-end metrics, 1 the per-layer ones")
		compare   = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return nil, nil, fmt.Errorf("-compare wants two result files, got %d", fs.NArg())
		}
		return nil, fs.Args(), nil
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	o := &options{passes: *passes, traced: *traced && !*noTraced, quick: *quick, out: *out, seconds: *seconds, trace: *trace}
	// Seeds beyond int64 wrap: any 64-bit value names one input set.
	if s, err := strconv.ParseInt(*seed, 10, 64); err == nil {
		o.seed = s
	} else if u, uerr := strconv.ParseUint(*seed, 10, 64); uerr == nil {
		o.seed = int64(u)
	} else {
		return nil, nil, fmt.Errorf("-seed %q: %w", *seed, err)
	}
	o.workloads = workloadNames
	if *workloads != "" {
		o.workloads = strings.Split(*workloads, ",")
	}
	for _, name := range o.workloads {
		if _, err := buildWorkload(name, o.seed, o.quick); err != nil {
			return nil, nil, err
		}
	}
	switch {
	case o.passes < 1:
		return nil, nil, fmt.Errorf("-passes %d: need at least one", o.passes)
	case o.seconds < 0 || o.trace < 0 || o.trace > 1:
		return nil, nil, fmt.Errorf("-seconds %d -trace %d: out of range", o.seconds, o.trace)
	case o.seconds > 0 && len(o.workloads) != 1:
		return nil, nil, fmt.Errorf("-seconds wants exactly one -workload")
	}
	if o.out == "" {
		o.out = "out"
		if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
			o.out = filepath.Join("bench", "out") // started from the repository root
		}
	}
	return o, nil, nil
}

func main() {
	o, compareFiles, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if compareFiles != nil {
		worse, err := compareResults(os.Stdout, compareFiles[0], compareFiles[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if res.failed() > 0 {
		os.Exit(1)
	}
}

// runner carries the state shared by the passes of one invocation.
type runner struct {
	o      *options
	passes []*passResult
	// known holds every run's fingerprint, so a later pass — traced ones
	// included — that disagrees with an earlier one fails.
	known map[string]map[string]string
	ref   *hostRef
}

// pass runs one pass of one workload, traced when tr is not nil.
func (r *runner) pass(name string, index int, tr *tracer) (*passResult, error) {
	w, err := buildWorkload(name, r.o.seed, r.o.quick)
	if err != nil {
		return nil, err
	}
	if r.known[name] == nil {
		r.known[name] = map[string]string{}
	}
	var p *passResult
	if w.Live != nil {
		p, err = livePass(w, tr, r.ref)
	} else {
		p, err = simPass(w, r.o.seed, r.o.quick, tr, r.known[name], r.ref)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p.Pass = index
	if tr != nil {
		if err := r.finishTraced(w, p, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	for k, v := range p.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p.fail(1, "metric %s is %v", k, v)
			p.Metrics[k] = 0
		}
	}
	p.Failed = min(p.Failed, p.Attempted)
	r.passes = append(r.passes, p)
	return p, nil
}

// finishTraced completes a traced pass: profile attribution, the driven
// spans, the tracing overhead against the untraced passes, and the span
// file.
func (r *runner) finishTraced(w *workload, p *passResult, tr *tracer) error {
	for _, l := range profiledLayers {
		p.Metrics[l+".cpu_s"] = tr.cpu[l]
		p.Metrics[l+".alloc_mb"] = tr.allocMB[l]
	}
	p.Metrics[layerGC+".cpu_s"] = tr.cpu[layerGC]
	p.Metrics[layerOther+".cpu_s"] = tr.cpu[layerOther]
	if err := runDrives(tr, w, r.o.seed, r.o.quick, p.Metrics); err != nil {
		return err
	}
	var untraced []float64
	for _, q := range r.passes {
		if q.Workload == w.Name && !q.Traced {
			untraced = append(untraced, q.WallS)
		}
	}
	if len(untraced) > 0 && p.WallS > 0 {
		p.Metrics["bench.trace_overhead"] = p.WallS / summarize(untraced).Median
	}
	for _, d := range perLayer {
		if _, ok := p.Metrics[d.Name]; !ok {
			p.Metrics[d.Name] = 0 // the layer does not run on this workload
		}
	}
	path, err := tr.write()
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: spans of %s written to %s\n", w.Name, path)
	return nil
}

// run executes the passes the options ask for, prints the report (and,
// under the driver's contract, the result object as the last line) to
// stdout and writes results.json and the span files to o.out.
func run(o *options, stdout io.Writer) (*results, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close() // an unmap of a private mapping cannot lose data
	r := &runner{o: o, known: map[string]map[string]string{}, ref: ref}
	start := time.Now()
	if o.seconds > 0 {
		name := o.workloads[0]
		w, err := buildWorkload(name, o.seed, o.quick)
		if err != nil {
			return nil, err
		}
		// As many whole passes as nominally fit into the requested time, at
		// least one. A traced run makes one untraced pass, the base of the
		// overhead ratio, and one traced pass.
		passes := max(int(float64(o.seconds)/w.PassSeconds), 1)
		if o.trace == 1 {
			passes = 1
		}
		for i := 0; i < passes; i++ {
			if _, err := r.pass(name, i, nil); err != nil {
				return nil, err
			}
		}
		if o.trace == 1 {
			if _, err := r.pass(name, 0, newTracer(name, o.out)); err != nil {
				return nil, err
			}
		}
	} else {
		// Workloads interleave (A B C D E, A B C D E, ...) so that drift of
		// the host hits all of them alike.
		for i := 0; i < o.passes; i++ {
			for _, name := range o.workloads {
				p, err := r.pass(name, i, nil)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "bench: pass %d of %s: %.2f s, %d of %d operations failed\n",
					i+1, name, p.WallS, p.Failed, p.Attempted)
			}
		}
		if o.traced {
			for _, name := range o.workloads {
				if _, err := r.pass(name, 0, newTracer(name, o.out)); err != nil {
					return nil, err
				}
			}
		}
	}

	res := r.results(time.Since(start))
	printReport(stdout, res)
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644); err != nil {
		return nil, err
	}
	if o.seconds > 0 {
		line, err := contractLine(res, o.workloads[0], o.trace == 1)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, line)
	}
	return res, nil
}
