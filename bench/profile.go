package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// This file attributes CPU and allocation samples to layers. The CPU
// side reads the gzipped protobuf runtime/pprof writes with a reader of
// the handful of fields it needs (github.com/google/pprof's profile.proto:
// Profile{sample=2, location=4, function=5, string_table=6, period=12},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}); the allocation side
// reads runtime.MemProfile directly.

const internalPrefix = "anongossip/internal/"

// layerOfFunc names the layer a fully qualified function belongs to, or
// "" when it is not under a profiled layer.
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "runtime/") // simrt and netrt sit one directory down
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	pkg := rest[:end]
	for _, l := range profiledLayers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// isGCFunc reports whether the function is one of the garbage
// collector's own goroutine entry points.
func isGCFunc(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination":
		return true
	}
	return false
}

// attributeStack charges a sample to the leaf-most frame under
// anongossip/internal/<layer>, so map, malloc and memmove time lands on
// the layer that asked for it. Stacks with no such frame go to the
// collector when they are its workers, else to other. frames run from
// the leaf to the root.
func attributeStack(frames []string) string {
	gc := false
	for _, fn := range frames {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
		if isGCFunc(fn) {
			gc = true
		}
	}
	if gc {
		return layerGC
	}
	return layerOther
}

// --- protobuf wire reader ---

type protoBuf struct{ b []byte }

var errProto = errors.New("malformed profile")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints decodes a repeated varint field given either its packed bytes or
// one unpacked value.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type cpuSample struct {
	locs  []uint64
	nanos int64
}

// cpuByLayer parses a runtime/pprof CPU profile and returns seconds of
// CPU per layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		samples   []cpuSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch field {
		case 2: // Sample
			var s cpuSample
			var vals []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			// CPU profiles carry (samples/count, cpu/nanoseconds).
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					line := protoBuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out[attributeStack(frames)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// allocSnapshot is the process's cumulative sampled allocation profile,
// scaled to estimated bytes, by layer.
type allocSnapshot map[string]float64

// takeAllocSnapshot reads the allocation profile. The caller runs a
// collection first: the runtime publishes allocation samples at the end
// of a GC cycle.
func takeAllocSnapshot() allocSnapshot {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := allocSnapshot{}
	var frames []string
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		// Undo the sampling bias the way pprof does: an object of the
		// record's mean size is sampled with probability 1-exp(-size/rate).
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		frames = frames[:0]
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			if f.Function != "" {
				frames = append(frames, f.Function)
			}
			if !more {
				break
			}
		}
		out[attributeStack(frames)] += bytes
	}
	return out
}

// since returns the megabytes allocated per layer between two snapshots.
func (after allocSnapshot) since(before allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	for l, b := range after {
		if d := b - before[l]; d > 0 {
			out[l] = d / (1 << 20)
		}
	}
	return out
}
