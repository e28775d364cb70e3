package sim

import (
	"container/heap"
	"fmt"
)

// QueueKind selects the Scheduler's event-queue implementation. Every
// kind realises the same total order — (time, insertion sequence) —
// so two runs that differ only in QueueKind execute bit-identical
// event schedules; only wall time changes. This mirrors the radio
// layer's grid/brute pattern: fast implementations, plus a simple
// reference retained for differential testing.
type QueueKind int

const (
	// QueueQuad (the default) is an implicit 4-ary min-heap over
	// inline {at, seq, slot} values: no per-event heap object, no
	// interface dispatch on comparisons, and a tree half as deep as a
	// binary heap, so a sift touches fewer cache lines.
	QueueQuad QueueKind = iota
	// QueueRef is the original container/heap binary heap — `any`
	// boxing on push/pop, interface-dispatched comparisons — retained
	// as the reference implementation for differential testing and as
	// the baseline the scheduler microbenchmarks compare against.
	QueueRef
	// QueueCal is a self-resizing calendar/bucket queue (see calqueue.go):
	// O(1) enqueue/dequeue when timestamps cluster at SIFS/DIFS/slot
	// granularity, which is exactly the MAC-dominated distribution of
	// 10k+-node runs where the heap's O(log n) sift re-emerges in
	// profiles.
	QueueCal
)

// String names the queue kind as the -queue flags spell it.
func (k QueueKind) String() string {
	switch k {
	case QueueQuad:
		return "quad"
	case QueueRef:
		return "ref"
	case QueueCal:
		return "cal"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// QueueNames lists the registered queue kinds as ParseQueueKind spells
// them, for flag help text and validation errors.
func QueueNames() string {
	return QueueQuad.String() + ", " + QueueCal.String() + ", " + QueueRef.String()
}

// ParseQueueKind resolves a -queue flag value to a QueueKind. The
// error enumerates the registered kinds, so a typo on the command line
// is self-correcting rather than a trip to the source.
func ParseQueueKind(name string) (QueueKind, error) {
	switch name {
	case "quad":
		return QueueQuad, nil
	case "ref":
		return QueueRef, nil
	case "cal":
		return QueueCal, nil
	default:
		return 0, fmt.Errorf("unknown queue kind %q (registered kinds: %s)", name, QueueNames())
	}
}

// event is one queue entry: the ordering key (at, seq) plus the pool
// slot holding the callback. Entries are 24 bytes, stored inline in
// the queue's backing array, and contain no pointers, so sifting moves
// flat values and the GC never scans the queue.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// less is the one total order every queue implementation must realise.
// seq values are unique, so the order is strict and pop order is fully
// determined regardless of the heap's internal layout.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is the min-queue contract the Scheduler runs against.
type eventQueue interface {
	push(event)
	// peek returns the minimum entry; undefined when len() == 0.
	peek() event
	// pop removes and returns the minimum entry.
	pop() event
	len() int
	// compact removes every entry whose keep(slot) reports false. The
	// surviving entries retain their (at, seq) keys, so pop order is
	// unaffected.
	compact(keep func(slot int32) bool)
}

// newEventQueue constructs the implementation for a kind.
func newEventQueue(kind QueueKind) eventQueue {
	switch kind {
	case QueueQuad:
		return &quadQueue{}
	case QueueRef:
		return &refQueue{}
	case QueueCal:
		return newCalQueue()
	default:
		panic(fmt.Sprintf("sim: unknown QueueKind %d", int(kind)))
	}
}

// quadQueue is an implicit 4-ary min-heap in one flat slice. The wider
// node brings two wins over the binary heap it replaces: the tree is
// half as deep (log4 vs log2), and the four children of node i sit in
// adjacent slots 4i+1..4i+4 — usually one cache line — so the extra
// comparisons per level are nearly free while each level saved avoids
// a likely cache miss. Push and pop do no allocation beyond amortised
// slice growth.
type quadQueue struct {
	a []event
}

func (q *quadQueue) len() int    { return len(q.a) }
func (q *quadQueue) peek() event { return q.a[0] }

func (q *quadQueue) push(e event) {
	q.a = append(q.a, e)
	q.siftUp(len(q.a) - 1)
}

func (q *quadQueue) pop() event {
	a := q.a
	min := a[0]
	last := len(a) - 1
	a[0] = a[last]
	q.a = a[:last]
	if last > 1 {
		q.siftDown(0)
	}
	return min
}

// siftUp moves the entry at i toward the root until its parent is
// smaller, shifting ancestors down in a hole-filling loop (one store
// per level instead of a full swap).
func (q *quadQueue) siftUp(i int) {
	a := q.a
	e := a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

// siftDown restores heap order below i: at each level the smallest of
// up to four adjacent children is promoted into the hole.
func (q *quadQueue) siftDown(i int) {
	a := q.a
	n := len(a)
	e := a[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].less(a[m]) {
				m = j
			}
		}
		if !a[m].less(e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

func (q *quadQueue) compact(keep func(int32) bool) {
	live := q.a[:0]
	for _, e := range q.a {
		if keep(e.slot) {
			live = append(live, e)
		}
	}
	q.a = live
	// Floyd heap construction: sift down every internal node, deepest
	// first. Internal nodes are 0 .. (n-2)/4.
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}

// refHeap implements heap.Interface the way the original scheduler
// did: `any`-boxed push/pop (one allocation per push) and interface-
// dispatched comparisons. It exists to keep the old cost profile
// measurable and to witness, in the differential tests, that the quad
// heap changes nothing but speed.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) {
	e, ok := x.(event)
	if !ok {
		panic(fmt.Sprintf("sim: refHeap.Push got %T, want event", x))
	}
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refQueue adapts refHeap to the eventQueue contract.
type refQueue struct {
	h refHeap
}

func (q *refQueue) len() int     { return len(q.h) }
func (q *refQueue) peek() event  { return q.h[0] }
func (q *refQueue) push(e event) { heap.Push(&q.h, e) }
func (q *refQueue) pop() event   { return heap.Pop(&q.h).(event) }

func (q *refQueue) compact(keep func(int32) bool) {
	live := q.h[:0]
	for _, e := range q.h {
		if keep(e.slot) {
			live = append(live, e)
		}
	}
	q.h = live
	heap.Init(&q.h)
}
