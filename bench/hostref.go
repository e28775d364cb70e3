package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// hostRef is a fixed piece of work, independent of the program under
// test, that the harness times between the timed calls of a pass. The
// shared host this benchmark runs on alternates between quiet minutes and
// minutes in which everything reads 10-25 % slower; a pass sits inside one
// such phase, so repeating it does not average the phase out. The
// reference is timed in the same phase: a pass divides its host times
// (wall_s, the latencies; set-up excepted, which it does not track) by the
// slowdown take returns. On the reference host, same binary and seed over
// 15 minutes, a pass's wall_s and its median slice time correlate with
// r = 0.90 (paper-baseline, a slice after each of its 20 runs) and
// 0.77-0.89 (live-chan, a slice every 10000 packets), and dividing cuts
// the interquartile spread of wall_s from 11-16 % to 4-7 % of the median.
//
// The work is a miniature discrete-event loop shaped like the simulator's
// own: pop the earliest event off a binary heap, update the node it names
// and one pseudo-random neighbour in an 8 MB table (larger than a core's
// private cache, like the simulator's heap with its garbage), push the
// follow-up event. Table and heap live in a private anonymous mapping, not
// on the Go heap: the simulator samples the process's live heap
// (heap_bytes_per_node) and the collector paces itself by it, and the
// reference must move neither. It allocates nothing while it runs.
type hostRef struct {
	mem    []byte
	nodes  []refNode
	heap   []refEvent // binary heap, always refPending entries between steps
	rng    uint64
	slices []float64 // host ns per slice, since the last take
}

type refNode struct {
	count uint64
	last  uint64
	seen  [6]uint64
}

type refEvent struct {
	when uint64
	node uint32
}

const (
	refNodes      = 1 << 17 // x 64 B = 8 MB
	refPending    = 1 << 13
	refSliceSteps = 40000
	// refNominalNS is the median slice time on the reference host while it
	// is quiet. Dividing by it keeps the reported times in that host's
	// seconds; its value cancels when two commits are compared.
	refNominalNS = 10.0e6
	// refMinRuns is the fewest timed calls a simulated pass must make to be
	// scaled, one slice after each. A slice before and after one 12-18 s
	// run says nothing about the minutes in between: on dense-250,
	// large-1k and huge-10k it correlated with the run's time at r = -0.09,
	// 0.77 and 0.60 and dividing by it doubled the spread, so those passes
	// report plain seconds (take returns 1).
	refMinRuns = 10
)

func newHostRef() (*hostRef, error) {
	nodeBytes := refNodes * int(unsafe.Sizeof(refNode{}))
	heapBytes := (refPending + 1) * int(unsafe.Sizeof(refEvent{}))
	mem, err := syscall.Mmap(-1, 0, nodeBytes+heapBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: mmap: %w", err)
	}
	h := &hostRef{mem: mem, rng: 0x9E3779B97F4A7C15}
	h.nodes = unsafe.Slice((*refNode)(unsafe.Pointer(&mem[0])), refNodes)
	h.heap = unsafe.Slice((*refEvent)(unsafe.Pointer(&mem[nodeBytes])), refPending+1)[:0]
	for i := 0; i < refPending; i++ {
		h.push(refEvent{when: h.next() % 1000, node: uint32(h.next()) % refNodes})
	}
	return h, nil
}

func (h *hostRef) close() error {
	h.nodes, h.heap = nil, nil
	return syscall.Munmap(h.mem)
}

func (h *hostRef) next() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

func (h *hostRef) push(e refEvent) {
	h.heap = append(h.heap, e)
	i := len(h.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.heap[p].when <= h.heap[i].when {
			break
		}
		h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
		i = p
	}
}

func (h *hostRef) pop() refEvent {
	top := h.heap[0]
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap = h.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.heap[l].when < h.heap[m].when {
			m = l
		}
		if r < n && h.heap[r].when < h.heap[m].when {
			m = r
		}
		if m == i {
			break
		}
		h.heap[i], h.heap[m] = h.heap[m], h.heap[i]
		i = m
	}
	return top
}

// sample times n slices of the reference work.
func (h *hostRef) sample(n int) {
	for s := 0; s < n; s++ {
		t0 := time.Now()
		for i := 0; i < refSliceSteps; i++ {
			e := h.pop()
			a := &h.nodes[e.node]
			a.count++
			a.last = e.when
			r := h.next()
			peer := uint32(r>>20) % refNodes
			b := &h.nodes[peer]
			b.seen[a.count%6] = e.when
			b.count++
			h.push(refEvent{when: e.when + 1 + r%997, node: peer})
		}
		h.slices = append(h.slices, float64(time.Since(t0).Nanoseconds()))
	}
}

// take returns how much slower than the quiet reference host the slices
// since the last take ran (their median over refNominalNS; 1 without
// slices), and forgets them.
func (h *hostRef) take() float64 {
	s := h.slices
	h.slices = nil
	if len(s) == 0 {
		return 1
	}
	sort.Float64s(s)
	return quantile(s, 0.5) / refNominalNS
}
