package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// span is one traced interval. Spans are recorded from the harness's own
// files, around its calls into each layer's public API; they stay in
// memory until the workload ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	// StartNS and EndNS are host nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Ops is the number of operations the span covers (0 when it is not a
	// batch) and Allocs the heap objects allocated during it.
	Ops    int    `json:"ops,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
	// CPUByLayer splits a profiled span's CPU time by layer (seconds).
	CPUByLayer map[string]float64 `json:"cpu_s_by_layer,omitempty"`
}

// tracer collects the spans and the profile attribution of one traced
// pass of one workload.
type tracer struct {
	workload string
	dir      string // existing directory for the span file and the raw CPU profiles
	t0       time.Time
	spans    []span
	cpu      map[string]float64 // layer → CPU seconds over all profiled spans
	allocMB  map[string]float64 // layer → MB allocated over all profiled spans
}

func newTracer(workload, dir string) *tracer {
	t := &tracer{workload: workload, dir: dir, t0: time.Now(), cpu: map[string]float64{}, allocMB: map[string]float64{}}
	t.begin(-1, "workload")
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndNS = t.now() }

// batch records a span around fn, which performs ops operations, and
// returns the mean host nanoseconds and heap allocations per operation.
func (t *tracer) batch(parent int, name string, ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.begin(parent, name)
	fn()
	t.end(id)
	runtime.ReadMemStats(&m1)
	s := &t.spans[id]
	s.Ops, s.Allocs = ops, m1.Mallocs-m0.Mallocs
	return float64(s.EndNS-s.StartNS) / float64(ops), float64(s.Allocs) / float64(ops)
}

// profiled runs fn under a CPU profile and between two allocation
// snapshots, attributes every sample to a layer, and records the split on
// a span named name. The profile starts before and stops after fn, so
// whatever fn times itself excludes the profiler's start-up and flush. The
// raw profile is kept as cpu-<workload>.<name>.pprof for go tool pprof.
func (t *tracer) profiled(parent int, name string, fn func()) error {
	runtime.GC()
	before := takeAllocSnapshot()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("trace %s: %w", name, err)
	}
	id := t.begin(parent, name)
	fn()
	t.end(id)
	pprof.StopCPUProfile()
	runtime.GC()
	alloc := takeAllocSnapshot().since(before)
	cpu, err := cpuByLayer(buf.Bytes())
	if err != nil {
		return fmt.Errorf("trace %s: %w", name, err)
	}
	if err := os.WriteFile(filepath.Join(t.dir, "cpu-"+t.workload+"."+name+".pprof"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	t.spans[id].CPUByLayer = cpu
	for l, s := range cpu {
		t.cpu[l] += s
	}
	for l, mb := range alloc {
		t.allocMB[l] += mb
	}
	return nil
}

// write stores the span tree as trace-<workload>.json.
func (t *tracer) write() (string, error) {
	t.end(0)
	path := filepath.Join(t.dir, "trace-"+t.workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
