package sim

import (
	"container/heap"
	"fmt"
)

// eventQueue is the min-queue contract quadQueue implements. The
// Scheduler holds its quadQueue concretely; the interface is only the
// seam through which these tests drive the production heap and the
// container/heap reference with one operation stream.
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

// queueImpl names one eventQueue implementation under test: the
// production 4-ary heap and the container/heap reference it is checked
// against.
type queueImpl struct {
	name string
	new  func() eventQueue
}

// queueImpls lists every implementation; the first entry is the
// reporting baseline the others are compared to.
var queueImpls = []queueImpl{
	{"quad", func() eventQueue { return &quadQueue{} }},
	{"ref", func() eventQueue { return &refQueue{} }},
}

func (q queueImpl) String() string { return q.name }

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
