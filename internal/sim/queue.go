package sim

// event is one queue entry: the ordering key (at, seq) plus the pool
// slot holding the callback. Entries are 24 bytes, stored inline in
// the queue's backing array, and contain no pointers, so sifting moves
// flat values and the GC never scans the queue.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// less is the total order the queue realises. seq values are unique,
// so the order is strict and pop order is fully determined regardless
// of the heap's internal layout.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is the min-queue contract the Scheduler runs against.
// quadQueue is the only production implementation; the interface is the
// seam through which the package's tests run the container/heap
// reference (refqueue_test.go) against it.
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
