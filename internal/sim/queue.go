package sim

import "math/bits"

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
//
// It compares (at, seq) as one 128-bit unsigned number, at the high
// half, by the borrow out of e − o: no data-dependent branch, so a
// child choice built on it compiles to conditional selects. Reading at
// as unsigned is exact because at ≥ 0 always holds — the clock starts
// at zero and only advances, and At clamps every deadline to it.
func (e event) less(o event) bool { return lessBit(e, o) != 0 }

// lessBit is less as 0 or 1, for index arithmetic.
func lessBit(e, o event) int {
	_, b := bits.Sub64(e.seq, o.seq, 0)
	_, b = bits.Sub64(uint64(e.at), uint64(o.at), b)
	return int(b)
}

// quadQueue is an implicit 4-ary min-heap in one flat slice. The wider
// node makes the tree half as deep as a binary heap's, and the four
// children of node i sit in adjacent slots 4i+1..4i+4 (96 bytes, one
// or two cache lines).
//
// The root is filled lazily: pop takes a[0] and leaves a hole there,
// and the next push drops its entry into the hole and sifts it down —
// one sift for the pop and the push together, where an eager pop
// would sift the last leaf down and the push then sift up. A callback
// that re-arms its own timer is that pop→push, and in the paper's
// 40-node world a push fills 83 % of holes (EXPERIMENTS.md hot-path
// ledger, §AC). Every other operation fills the hole first, from the last
// leaf, as an eager pop would have. Push and pop allocate nothing beyond
// amortised slice growth.
type quadQueue struct {
	a []event
	// hole reports that a[0] was popped and not yet refilled; the
	// entries below it are still in heap order.
	hole bool
}

func (q *quadQueue) len() int {
	if q.hole {
		q.fill()
	}
	return len(q.a)
}

// peek returns the minimum entry; undefined when len() == 0.
func (q *quadQueue) peek() event {
	if q.hole {
		q.fill()
	}
	return q.a[0]
}

func (q *quadQueue) push(e event) {
	if q.hole {
		q.hole = false
		q.a[0] = e
		q.siftDown(0)
		return
	}
	q.a = append(q.a, e)
	q.siftUp(len(q.a) - 1)
}

// pop removes and returns the minimum entry, leaving a hole at the
// root; undefined when len() == 0.
func (q *quadQueue) pop() event {
	if q.hole {
		q.fill()
	}
	q.hole = true
	return q.a[0]
}

// fill closes the hole at the root with the last leaf. Callers test
// q.hole first, so the common no-hole case costs no call.
func (q *quadQueue) fill() {
	q.hole = false
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	if last > 1 {
		q.siftDown(0)
	}
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
// up to four adjacent children is promoted into the hole. A full group
// is decided by a branchless tournament (two pairs, then their
// winners); keys are unique, so the winner is the one minimum whatever
// the pairing.
func (q *quadQueue) siftDown(i int) {
	a := q.a
	n := len(a)
	e := a[i]
	for {
		c := i<<2 + 1
		var m int
		if c+4 <= n {
			g := (*[4]event)(a[c : c+4])
			l := lessBit(g[1], g[0])
			r := 2 + lessBit(g[3], g[2])
			l += (r - l) & -lessBit(g[r&3], g[l&3])
			m = c + l
		} else {
			if c >= n {
				break
			}
			m = c
			for j := c + 1; j < n; j++ {
				if a[j].less(a[m]) {
					m = j
				}
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

// compact removes every entry whose keep(slot) reports false. The
// surviving entries retain their (at, seq) keys, so pop order is
// unaffected. The hole goes first: the popped root's slot was released
// when it was popped and may be live again, so keep must never see it.
func (q *quadQueue) compact(keep func(slot int32) bool) {
	if q.hole {
		q.fill()
	}
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
