// Package sim provides the discrete-event simulation kernel that every other
// layer of the reproduction runs on. It replaces GloMoSim/PARSEC, the
// simulator used in the paper's evaluation.
//
// The kernel is deliberately single-threaded and deterministic: events are
// totally ordered by (time, insertion sequence), and all randomness flows
// from a single seed through named sub-streams (see RNG). Two runs with the
// same configuration and seed produce bit-identical schedules, which makes
// every experiment in EXPERIMENTS.md replayable.
//
// A corollary callers may rely on (the radio's batched reception model
// does — see DESIGN.md §3): insertion sequences are allocated at
// scheduling time and only grow, so events scheduled back-to-back for
// one instant execute as a contiguous block — nothing scheduled later,
// not even from a callback already executing at that instant, can
// interleave into the block. Replacing such a block with a single event
// carrying the block's work is therefore order-equivalent.
//
// Timers live in a generation-stamped pool inside the Scheduler: After/At
// allocate nothing per event, Timer handles are small copyable values, and
// fired or cancelled slots are recycled through a free list. A periodic
// series (Every) holds one slot and one queue entry at a time: each
// firing arms the next.
// The pending set is ordered by two implicit 4-ary min-heaps (see
// quadQueue), a near and a far tier merged by (at, seq) (see
// nearHorizon).
package sim

import (
	"math"
	"time"
)

// Time is a simulation timestamp, expressed as the duration elapsed since
// the start of the run. Using time.Duration keeps arithmetic, parsing and
// formatting idiomatic while staying on an int64 nanosecond base.
type Time = time.Duration

// slotState tracks a pool slot through one timer lifecycle.
type slotState uint8

const (
	// slotPending: scheduled, queue entry outstanding.
	slotPending slotState = iota
	// slotCancelled: Cancel ran; the queue entry may still be riding
	// in the heap until it is popped or compacted away.
	slotCancelled
	// slotFired: the callback ran; the slot is on the free list.
	slotFired
)

// slot is one pooled timer. The callback is released (set to nil) as
// soon as the timer fires or is cancelled, so completed timers pin
// neither their captured closures nor anything those closures reach,
// even while protocol structs keep stale handles around.
type slot struct {
	fn func()
	at Time
	// next is the lazy-retarget deadline (see Timer.Postpone). Zero, or
	// equal to at, for ordinary timers. When a popped entry's slot
	// carries next > at, the kernel re-enqueues it at next — consuming
	// one insertion sequence at exactly the position the popped entry
	// held, just as a fired callback re-arming itself would — and counts
	// the hop in elided instead of processed.
	next Time
	// gen is 64-bit so it cannot wrap within any feasible run: a
	// wrapped stamp would let an ancient stale handle alias the slot's
	// live occupant.
	gen   uint64
	state slotState
}

// Timer is a handle for a scheduled event: a pool index plus the
// generation stamp it was issued under. It is a small value — copy it
// freely; the zero Timer is valid and behaves as a long-completed
// timer (Cancel is a no-op, Done reports true, IsZero reports true).
//
// Once a timer completes (fires or is cancelled), its pool slot is
// eventually recycled for a new timer and the slot's generation
// advances, so stale handles can never affect their slot's new
// occupant. State queries on a handle whose slot has been recycled
// conservatively report Fired() == false and Cancelled() == false;
// Done() remains exact and is the query to use for "finished either
// way".
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint64
}

// IsZero reports whether the handle is the zero Timer, i.e. was never
// returned by After/At.
func (t Timer) IsZero() bool { return t.s == nil }

// lookup resolves the handle to its pool slot. ok is false for zero
// handles and for handles whose slot has been recycled (generation
// mismatch).
func (t Timer) lookup() (*slot, bool) {
	if t.s == nil {
		return nil, false
	}
	sl := &t.s.pool[t.slot]
	return sl, sl.gen == t.gen
}

// At reports the simulation time the timer is scheduled to fire, or
// fired at. It returns 0 once the slot has been recycled.
func (t Timer) At() Time {
	if sl, ok := t.lookup(); ok {
		return sl.at
	}
	return 0
}

// Cancel prevents the timer from firing. It is safe to call more than
// once, after the timer has fired, and on the zero Timer. Cancelled
// timers do not linger until their deadline: the scheduler compacts
// its queue once they outnumber the live entries, so long runs with
// many cancelled MAC/route timers don't bloat the heap.
func (t Timer) Cancel() {
	sl, ok := t.lookup()
	if !ok || sl.state != slotPending {
		return
	}
	sl.state = slotCancelled
	sl.fn = nil // release captured state promptly
	t.s.noteCancelled()
}

// Postpone lazily retargets a pending timer to a later deadline. The
// queue entry stays where it is; when the kernel pops it at the old
// (time, seq) position it re-enqueues the timer at the postponed time —
// allocating the insertion sequence there, exactly as if the timer had
// fired and its callback had immediately re-armed it — and counts the
// hop as an elided event rather than a processed one. Callers use this
// to replace fire-and-rearm chains whose intermediate callbacks would
// compute a deadline the caller already knows exactly (the MAC's
// folded contention countdown, DESIGN.md §4); the observable schedule
// is bit-identical to the chain it replaces.
//
// At() keeps reporting the current queue position until the hop
// happens, matching the deadline a fire-and-rearm chain would report,
// so cancellation accounting against the deadline is unaffected.
// Postpone is monotone: targets at or before the current queue
// position are ignored, and a pending postponement only ever grows.
// It reports false if the timer already completed.
func (t Timer) Postpone(at Time) bool {
	sl, ok := t.lookup()
	if !ok || sl.state != slotPending {
		return false
	}
	if at > sl.at && at > sl.next {
		sl.next = at
	}
	return true
}

// Unpostpone clears any pending postponement, restoring the timer to
// fire at its current queue position. Callers use it when the
// knowledge that justified a Postpone is invalidated before the hop
// happens: the entry then fires exactly where the fire-and-rearm chain
// would have run its callback. A hop that already happened is
// unaffected (the postponed time became the queue position).
func (t Timer) Unpostpone() {
	if sl, ok := t.lookup(); ok && sl.state == slotPending {
		sl.next = 0
	}
}

// Cancelled reports whether Cancel stopped the timer before it fired.
// Exact until the slot is recycled (see the Timer doc).
func (t Timer) Cancelled() bool {
	sl, ok := t.lookup()
	return ok && sl.state == slotCancelled
}

// Fired reports whether the timer's callback has run. Exact until the
// slot is recycled (see the Timer doc).
func (t Timer) Fired() bool {
	sl, ok := t.lookup()
	return ok && sl.state == slotFired
}

// Done reports whether the timer has completed — fired or cancelled.
// Unlike Fired and Cancelled it stays exact after the slot is
// recycled: recycling is only possible once the timer completed. The
// zero Timer reports true, consistent with behaving as a
// long-completed timer.
func (t Timer) Done() bool {
	if t.s == nil {
		return true
	}
	sl, ok := t.lookup()
	return !ok || sl.state != slotPending
}

// nearHorizon splits the pending set: an entry due at least this far
// ahead of the clock (protocol ticks, route waits, gossip rounds,
// pre-scheduled traffic) waits in the far tier, so channel events, all
// under 21 ms ahead, sift through a near heap of a few (DESIGN.md §2).
const nearHorizon = 50 * time.Millisecond

// Scheduler is the event loop. The zero value is not usable; construct with
// NewScheduler.
type Scheduler struct {
	now  Time
	seq  uint64
	near quadQueue // entries due under nearHorizon ahead when pushed
	far  quadQueue // the rest; seq is global, so the two tops merge
	pool []slot
	free []int32

	// processed counts events executed so far (cancelled events excluded).
	processed uint64
	// elided counts postponed-timer hops the kernel re-enqueued in place
	// of firing (see Timer.Postpone): each stands for exactly one event
	// a fire-and-rearm chain would have executed, so event-count parity
	// is processed + elided.
	elided uint64
	// cancelled counts slots in the queue whose Cancel ran; Pending
	// subtracts it and compact drops them.
	cancelled int
}

// NewScheduler returns a scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Elided returns the number of postponed-timer hops the kernel
// re-enqueued without firing (see Timer.Postpone). Each hop stands for
// one event the equivalent fire-and-rearm chain would have processed,
// so Processed() + Elided() is the schedule-parity event count.
func (s *Scheduler) Elided() uint64 { return s.elided }

// Pending returns the number of live (non-cancelled) events currently
// scheduled.
func (s *Scheduler) Pending() int { return s.queued() - s.cancelled }

// queued returns the number of entries in both tiers, cancelled ones
// included.
func (s *Scheduler) queued() int { return s.near.len() + s.far.len() }

// NextAt reports the timestamp of the earliest queued entry and whether
// one exists. The entry may be a cancelled timer still riding in the
// queue, so the reported time is a lower bound on the next event that
// will actually fire — callers that sleep until it (the real-time
// runtime does) simply wake, pop the tombstone, and sleep again.
func (s *Scheduler) NextAt() (Time, bool) {
	if q := s.top(); q != nil {
		return q.peek().at, true
	}
	return 0, false
}

// top returns the tier holding the earliest entry, or nil when both
// are empty.
func (s *Scheduler) top() *quadQueue {
	switch {
	case s.far.len() > 0 && (s.near.len() == 0 || s.far.peek().less(s.near.peek())):
		return &s.far
	case s.near.len() > 0:
		return &s.near
	}
	return nil
}

// push enqueues e in the tier its distance from the clock selects.
func (s *Scheduler) push(e event) {
	q := &s.near
	if e.at-s.now >= nearHorizon {
		q = &s.far
	}
	q.push(e)
}

// noteCancelled records one cancelled-but-queued timer and compacts the
// queue when cancelled entries outnumber live ones. The 64-entry floor
// keeps tiny queues from compacting constantly; the one-half ratio
// bounds the queue at twice the live count, making the amortised cost of
// each cancellation O(1) heap work.
func (s *Scheduler) noteCancelled() {
	s.cancelled++
	if s.cancelled >= 64 && s.cancelled > s.queued()/2 {
		s.compact()
	}
}

// compact rebuilds the queue without its cancelled entries, releasing
// their slots to the free list. Ordering is unaffected: the surviving
// entries keep their (at, seq) keys, so runs with and without
// compaction execute identically.
func (s *Scheduler) compact() {
	keep := func(idx int32) bool {
		if s.pool[idx].state == slotCancelled {
			s.free = append(s.free, idx)
			return false
		}
		return true
	}
	s.near.compact(keep)
	s.far.compact(keep)
	s.cancelled = 0
}

// After schedules fn to run d after the current time and returns a handle
// that can cancel it. A negative d is treated as zero: the event fires at
// the current time, after already-queued events for that instant. A d so
// large that now+d overflows saturates to the maximum representable time
// — the event is effectively never reached — instead of wrapping
// negative and firing immediately.
func (s *Scheduler) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	t := s.now + d
	if t < s.now { // overflow: saturate, don't wrap into the past
		t = Time(math.MaxInt64)
	}
	return s.At(t, fn)
}

// At schedules fn to run at absolute simulation time t. Times in the past
// are clamped to the present.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	idx := s.arm(t, s.seq, fn)
	s.seq++
	return Timer{s: s, slot: idx, gen: s.pool[idx].gen}
}

// arm queues fn at t, clamped to the present, under insertion sequence
// seq, and returns its pool slot.
func (s *Scheduler) arm(t Time, seq uint64, fn func()) int32 {
	t = max(t, s.now)
	idx := s.alloc(fn, t)
	s.push(event{at: t, seq: seq, slot: idx})
	return idx
}

// Every schedules fn to run n times, at first + i·period for i in
// [0, n). The firings, and their order against every other event, are
// those of n back-to-back At calls: Every reserves the n insertion
// sequences those calls would take, and firing i is armed under the
// i-th. Deadlines in the past clamp to the present, as At's do, and one
// past the largest Time saturates to it. However large n is, the series
// holds one pool slot and one queue entry at a time: each firing arms
// the next before it calls fn (Pending counts the series once). It has
// no handle, so it can be neither cancelled nor postponed. A negative
// period panics: its firings would not come in sequence order.
func (s *Scheduler) Every(first, period Time, n int, fn func()) {
	if fn == nil {
		panic("sim: Every called with nil callback")
	}
	if n <= 0 {
		return
	}
	if period < 0 {
		panic("sim: Every called with a negative period")
	}
	at, seq, left := first, s.seq, n
	s.seq += uint64(n)
	var step func()
	step = func() {
		if left--; left > 0 {
			next := at + period
			if next < at { // overflow: saturate, as After does
				next = Time(math.MaxInt64)
			}
			at, seq = next, seq+1
			s.arm(at, seq, step)
		}
		fn()
	}
	s.arm(at, seq, step)
}

// alloc claims a pool slot for a pending event, recycling from the free
// list when possible. The caller enqueues the entry.
func (s *Scheduler) alloc(fn func(), t Time) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		sl := &s.pool[idx]
		sl.gen++ // invalidate handles from the previous lifecycle
		sl.fn, sl.at, sl.state = fn, t, slotPending
		sl.next = 0
	} else {
		idx = int32(len(s.pool))
		s.pool = append(s.pool, slot{fn: fn, at: t, state: slotPending})
	}
	return idx
}

// fire pops the given entry's slot into the fired state, releases the
// callback and the slot, and returns the callback to run. The slot is
// recycled before the callback executes, so a callback that schedules
// a new timer may reuse it immediately.
func (s *Scheduler) fire(e event) func() {
	sl := &s.pool[e.slot]
	fn := sl.fn
	sl.fn = nil // release the closure the moment it is claimed
	sl.state = slotFired
	s.free = append(s.free, e.slot)
	return fn
}

// repost re-enqueues a popped-but-postponed timer at its lazy target,
// allocating the insertion sequence the hop's re-arm would have
// consumed at exactly this position in the order.
func (s *Scheduler) repost(e event) {
	sl := &s.pool[e.slot]
	sl.at = sl.next
	s.push(event{at: sl.next, seq: s.seq, slot: e.slot})
	s.seq++
	s.elided++
}

// Run executes events in order until the queue is empty or the next event
// is strictly after `until`, and then advances the clock to `until`. It
// reports the number of events executed by this call.
func (s *Scheduler) Run(until Time) uint64 {
	var n uint64
	for q := s.top(); q != nil && q.peek().at <= until; q = s.top() {
		e := q.pop()
		if s.pool[e.slot].state == slotCancelled {
			s.cancelled--
			s.free = append(s.free, e.slot)
			continue
		}
		s.now = e.at
		if s.pool[e.slot].next > e.at {
			s.repost(e)
			continue
		}
		s.fire(e)()
		s.processed++
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunAll executes events until the queue is empty or maxEvents have run.
// It reports the number executed and whether the queue drained completely.
// It is intended for tests; simulations should use Run with a horizon.
func (s *Scheduler) RunAll(maxEvents uint64) (uint64, bool) {
	var n uint64
	for q := s.top(); q != nil && n < maxEvents; q = s.top() {
		e := q.pop()
		if s.pool[e.slot].state == slotCancelled {
			s.cancelled--
			s.free = append(s.free, e.slot)
			continue
		}
		s.now = e.at
		if s.pool[e.slot].next > e.at {
			s.repost(e)
			n++ // an elided hop still counts against the event budget
			continue
		}
		s.fire(e)()
		s.processed++
		n++
	}
	return n, s.queued() == 0
}
