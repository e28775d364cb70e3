package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, d := range []Time{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second} {
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run(10 * time.Second)
	want := []Time{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of insertion order: %v", order)
		}
	}
}

// TestSchedulerSameInstantBlockOrdering pins the ordering guarantee the
// radio's batched reception path builds on: events scheduled
// back-to-back for one instant form a contiguous sequence block, and an
// event scheduled later — even from a callback already executing at
// that same instant — can never interleave into the block, because
// sequence numbers are allocated at scheduling time and only grow. A
// single event standing in for such a block therefore executes at an
// equivalent point in the total order.
func TestSchedulerSameInstantBlockOrdering(t *testing.T) {
	s := NewScheduler()
	const at = time.Second
	var order []string
	// Scheduled first: fires before the block and schedules a
	// same-instant follow-up mid-execution.
	s.At(at, func() {
		order = append(order, "pre")
		s.At(at, func() { order = append(order, "follow-up") })
	})
	// The contiguous block, scheduled back to back.
	for i := 0; i < 3; i++ {
		s.At(at, func() {
			order = append(order, fmt.Sprintf("block%d", i))
			if i == 0 {
				// Scheduling at the current instant from inside the
				// block lands after the block too.
				s.At(at, func() { order = append(order, "inner") })
			}
		})
	}
	s.Run(2 * at)
	want := []string{"pre", "block0", "block1", "block2", "follow-up", "inner"}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("same-instant block order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerRunHorizon(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(3*time.Second, func() { fired++ })

	n := s.Run(2 * time.Second)
	if n != 1 || fired != 1 {
		t.Fatalf("Run(2s) executed %d events (fired=%d), want 1", n, fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock at %v after Run(2s), want 2s", s.Now())
	}
	n = s.Run(5 * time.Second)
	if n != 1 || fired != 2 {
		t.Fatalf("second Run executed %d events (fired=%d), want 1", n, fired)
	}
}

func TestSchedulerClockAdvancesToHorizonWhenIdle(t *testing.T) {
	s := NewScheduler()
	s.Run(7 * time.Second)
	if s.Now() != 7*time.Second {
		t.Fatalf("idle Run left clock at %v, want 7s", s.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	tm.Cancel()
	s.Run(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Cancelled() || tm.Fired() {
		t.Fatalf("timer state Cancelled=%v Fired=%v, want true,false", tm.Cancelled(), tm.Fired())
	}
}

func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	s := NewScheduler()
	tm := s.After(time.Second, func() {})
	s.Run(2 * time.Second)
	if !tm.Fired() {
		t.Fatal("timer did not fire")
	}
	tm.Cancel() // must not panic or corrupt state
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := NewScheduler()
	var at []Time
	s.After(time.Second, func() {
		s.After(time.Second, func() { at = append(at, s.Now()) })
		s.After(0, func() { at = append(at, s.Now()) })
	})
	s.Run(5 * time.Second)
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Fatalf("nested scheduling fired at %v, want [1s 2s]", at)
	}
}

// TestAfterOverflowSaturates is the regression test for the now+d
// wraparound: before the fix, a huge delay wrapped negative, was
// clamped to now, and fired immediately. It must saturate to the
// maximum representable time instead — scheduled, never reached.
func TestAfterOverflowSaturates(t *testing.T) {
	s := NewScheduler()
	s.Run(time.Second) // advance the clock so now+MaxInt64 overflows
	fired := false
	tm := s.After(Time(math.MaxInt64), func() { fired = true })
	if tm.At() != Time(math.MaxInt64) {
		t.Fatalf("overflowing After scheduled at %v, want saturation at MaxInt64", tm.At())
	}
	s.Run(100 * 365 * 24 * time.Hour)
	if fired {
		t.Fatal("overflowing After fired instead of saturating")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want the saturated event still queued", got)
	}
}

// TestFiredTimerReleasesState checks the pool recycles fired slots and
// drops their callbacks: a fired timer must not pin its closure, and
// the next After must reuse the slot rather than grow the pool.
func TestFiredTimerReleasesState(t *testing.T) {
	s := NewScheduler()
	a := s.After(time.Second, func() {})
	s.Run(2 * time.Second)
	if got := s.pool[a.slot].fn; got != nil {
		t.Fatal("fired timer still holds its callback")
	}
	if !a.Fired() || !a.Done() {
		t.Fatalf("Fired=%v Done=%v after firing, want true,true", a.Fired(), a.Done())
	}
	b := s.After(time.Second, func() {})
	if len(s.pool) != 1 {
		t.Fatalf("pool grew to %d slots, want the fired slot reused", len(s.pool))
	}
	if b.slot != a.slot || b.gen == a.gen {
		t.Fatalf("reuse did not advance the generation: a=%+v b=%+v", a, b)
	}
}

// TestStaleHandleCannotTouchNewOccupant: once a slot is recycled, the
// old handle's Cancel must be a no-op against the slot's new timer.
func TestStaleHandleCannotTouchNewOccupant(t *testing.T) {
	s := NewScheduler()
	a := s.After(time.Second, func() {})
	s.Run(2 * time.Second)
	fired := false
	s.After(time.Second, func() { fired = true }) // reuses a's slot
	a.Cancel()                                    // stale: must not cancel b
	if a.Fired() || a.Cancelled() {
		t.Fatalf("stale handle reports Fired=%v Cancelled=%v, want conservative false,false", a.Fired(), a.Cancelled())
	}
	if !a.Done() {
		t.Fatal("stale handle must still report Done")
	}
	s.Run(5 * time.Second)
	if !fired {
		t.Fatal("stale Cancel reached the slot's new occupant")
	}
}

// TestZeroTimerIsInert: the zero Timer must be safe to query and
// cancel (protocol structs use it as "no timer scheduled").
func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if !tm.IsZero() || tm.Fired() || tm.Cancelled() || tm.At() != 0 {
		t.Fatalf("zero Timer not inert: %+v", tm)
	}
	if !tm.Done() {
		t.Fatal("zero Timer must behave as long-completed: Done() = false")
	}
	tm.Cancel() // must not panic
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := NewScheduler()
	var fired Time = -1
	s.After(2*time.Second, func() {
		s.At(time.Second, func() { fired = s.Now() }) // in the past
	})
	s.Run(10 * time.Second)
	if fired != 2*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 2s", fired)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run(0)
	if !fired {
		t.Fatal("negative-delay event did not fire at t=0")
	}
}

func TestRunAll(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 4; i++ {
		s.After(Time(i)*time.Second, func() { count++ })
	}
	n, drained := s.RunAll(2)
	if n != 2 || drained {
		t.Fatalf("RunAll(2) = (%d, %v), want (2, false)", n, drained)
	}
	n, drained = s.RunAll(100)
	if n != 2 || !drained {
		t.Fatalf("second RunAll = (%d, %v), want (2, true)", n, drained)
	}
}

func TestAtNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewScheduler().At(0, nil)
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the clock never goes backwards.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		s := NewScheduler()
		var times []Time
		for _, d := range delaysMS {
			s.After(Time(d)*time.Millisecond, func() { times = append(times, s.Now()) })
		}
		s.Run(1000 * time.Second)
		if len(times) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Processed equals the number of scheduled, non-cancelled events
// after a full drain, regardless of which subset was cancelled.
func TestSchedulerCancelAccountingProperty(t *testing.T) {
	f := func(delaysMS []uint16, cancelMask []bool) bool {
		s := NewScheduler()
		timers := make([]Timer, 0, len(delaysMS))
		for _, d := range delaysMS {
			timers = append(timers, s.After(Time(d)*time.Millisecond, func() {}))
		}
		want := uint64(0)
		for i, tm := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				tm.Cancel()
			} else {
				want++
			}
		}
		s.Run(1000 * time.Second)
		return s.Processed() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.After(time.Second, func() {})
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for _, tm := range timers[:4] {
		tm.Cancel()
		tm.Cancel() // double-cancel must not double-count
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	s.Run(2 * time.Second)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	if got := s.Processed(); got != 6 {
		t.Fatalf("Processed = %d, want 6", got)
	}
}

// TestCancelCompactsHeap is the leak regression test: cancelling far-future
// timers must shrink the queue long before their deadlines arrive, instead
// of letting them ride in the heap (the pre-fix behaviour, where a long run
// with many cancelled MAC/route timers grew the queue without bound).
func TestCancelCompactsHeap(t *testing.T) {
	s := NewScheduler()
	const n = 10000
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = s.After(time.Hour, func() {})
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after cancelling all = %d, want 0", got)
	}
	// The heap itself must have been compacted, not just the count.
	if got := s.queued(); got >= n/2 {
		t.Fatalf("heap holds %d entries after cancelling all %d, want compaction", got, n)
	}
	// Compaction must have released the dead slots for reuse.
	if live := len(s.pool) - len(s.free); live != s.queued() {
		t.Fatalf("%d slots outside the free list, want %d (queue residue)", live, s.queued())
	}
}

// TestCompactionPreservesOrdering drains a mixed live/cancelled schedule
// through a forced compaction and checks the survivors still fire in
// exact (time, insertion) order. Cancelling two thirds of the timers
// guarantees the cancelled count crosses the one-half compaction
// threshold while survivors remain to witness the ordering.
func TestCompactionPreservesOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	var cancel []Timer
	want := make([]int, 0, 500)
	for i := 0; i < 500; i++ {
		d := Time(i%7) * time.Second
		tm := s.After(d, func() { got = append(got, i) })
		if i%3 != 0 {
			cancel = append(cancel, tm)
		} else {
			want = append(want, i)
		}
	}
	before := s.queued()
	for _, tm := range cancel {
		tm.Cancel()
	}
	if s.queued() >= before {
		t.Fatalf("heap did not compact: %d entries before, %d after cancelling %d", before, s.queued(), len(cancel))
	}
	s.Run(10 * time.Second)
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	// Reconstruct the expected order: stable by (delay, insertion index).
	byTime := map[int][]int{}
	for _, i := range want {
		byTime[i%7] = append(byTime[i%7], i)
	}
	var expect []int
	for d := 0; d < 7; d++ {
		expect = append(expect, byTime[d]...)
	}
	for k := range expect {
		if got[k] != expect[k] {
			t.Fatalf("event %d fired as %d, want %d (compaction broke ordering)", k, got[k], expect[k])
		}
	}
}

// TestTiersMergeBySequence: entries for one instant that sit in
// different tiers fire in insertion order, whichever tier holds the
// earlier one. Through the API a far entry for an instant is always
// armed before a near one (the clock only advances), so the reverse
// case winds the clock back by hand to arm the near entry first.
func TestTiersMergeBySequence(t *testing.T) {
	const at = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		arm  func(s *Scheduler, log func(string) func())
	}{
		{"far-first", func(s *Scheduler, log func(string) func()) {
			s.At(at, log("far"))
			s.Run(60 * time.Millisecond)
			s.At(at, log("near"))
		}},
		{"near-first", func(s *Scheduler, log func(string) func()) {
			s.now = 60 * time.Millisecond
			s.At(at, log("near"))
			s.now = 0
			s.At(at, log("far"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			var got []string
			var armed []string
			tc.arm(s, func(name string) func() {
				armed = append(armed, name)
				return func() { got = append(got, name) }
			})
			if s.near.len() != 1 || s.far.len() != 1 {
				t.Fatalf("tiers hold near=%d far=%d, want one entry each", s.near.len(), s.far.len())
			}
			s.Run(time.Second)
			if fmt.Sprint(got) != fmt.Sprint(armed) {
				t.Fatalf("fired %v, want insertion order %v", got, armed)
			}
		})
	}
}

// TestFarTimersStayOutOfNearTier pins the split itself. A broken split
// costs speed only — order comes from (at, seq) either way — so no
// ordering test can catch it.
func TestFarTimersStayOutOfNearTier(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 1000; i++ {
		s.After(600*time.Millisecond, func() {})
	}
	for i := 0; i < 10; i++ {
		s.After(time.Millisecond, func() {})
	}
	if s.far.len() != 1000 || s.near.len() != 10 {
		t.Fatalf("tiers hold near=%d far=%d, want 10 and 1000", s.near.len(), s.far.len())
	}
}

// TestEveryMatchesBackToBackAt: random scripts of At, Cancel, Every
// and partial runs fire the same callbacks at the same times, in
// the same order, on a kernel that runs each series with Every and on
// one that arms its n firings with back-to-back At calls. Each series
// firing ties with an At armed before the series and another armed
// after it.
func TestEveryMatchesBackToBackAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	periods := []Time{0, 5 * time.Millisecond, 20 * time.Millisecond, nearHorizon, 200 * time.Millisecond}
	for trial := 0; trial < 200; trial++ {
		var (
			s      = [2]*Scheduler{NewScheduler(), NewScheduler()}
			log    [2][]string
			timers [2][]Timer
		)
		note := func(k int, what string) func() {
			return func() { log[k] = append(log[k], fmt.Sprintf("%v %s", s[k].Now(), what)) }
		}
		at := func(t Time) {
			for k := range s {
				timers[k] = append(timers[k], s[k].At(t, note(k, fmt.Sprintf("at %d", len(timers[k])))))
			}
		}
		for op, series := 0, 0; op < 60; op++ {
			now := s[0].Now()
			switch rng.Intn(5) {
			case 0: // on a 5 ms grid, where series firings fall too
				at(now + Time(rng.Intn(40))*5*time.Millisecond)
			case 1:
				if n := len(timers[0]); n > 0 {
					i := rng.Intn(n)
					timers[0][i].Cancel()
					timers[1][i].Cancel()
				}
			case 2:
				first := now + Time(rng.Intn(40)-8)*5*time.Millisecond
				period, n := periods[rng.Intn(len(periods))], rng.Intn(6)
				tie := max(first+Time(rng.Intn(max(n, 1)))*period, now)
				at(tie)
				s[0].Every(first, period, n, note(0, fmt.Sprintf("series %d", series)))
				for i := 0; i < n; i++ {
					s[1].At(first+Time(i)*period, note(1, fmt.Sprintf("series %d", series)))
				}
				at(tie)
				series++
			case 3:
				until := now + Time(rng.Intn(20))*5*time.Millisecond
				s[0].Run(until)
				s[1].Run(until)
			case 4:
				budget := uint64(rng.Intn(5))
				s[0].RunAll(budget)
				s[1].RunAll(budget)
			}
		}
		s[0].RunAll(math.MaxUint64)
		s[1].RunAll(math.MaxUint64)
		if !slices.Equal(log[0], log[1]) {
			t.Fatalf("trial %d: with Every\n%v\nwith At\n%v", trial, log[0], log[1])
		}
		if s[0].Processed() != s[1].Processed() || s[0].Now() != s[1].Now() {
			t.Fatalf("trial %d: Every ran %d events to %v, At %d to %v",
				trial, s[0].Processed(), s[0].Now(), s[1].Processed(), s[1].Now())
		}
	}
}

// TestEveryHoldsOneEntry: a series of 2,201 firings — one CBR source of
// the paper's run — holds one queue entry and one pool slot from the
// first firing to the last. A series that fell back to one entry per
// firing would still fire in order, so only this test sees it.
func TestEveryHoldsOneEntry(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.Every(120*time.Second, 200*time.Millisecond, 2201, func() { fired = append(fired, s.Now()) })
	if s.queued() != 1 || len(s.pool) != 1 || s.Pending() != 1 {
		t.Fatalf("series holds %d queue entries, %d pool slots, %d pending; want 1 each", s.queued(), len(s.pool), s.Pending())
	}
	s.Run(300 * time.Second)
	if s.queued() != 1 || len(s.pool) != 1 {
		t.Fatalf("mid-series: %d queue entries, %d pool slots; want 1 each", s.queued(), len(s.pool))
	}
	s.Run(time.Hour)
	if len(fired) != 2201 || fired[0] != 120*time.Second || fired[2200] != 560*time.Second {
		t.Fatalf("%d firings from %v to %v, want 2201 from 2m0s to 9m20s", len(fired), fired[0], fired[len(fired)-1])
	}
	if s.queued() != 0 || len(s.pool) != 1 || len(s.free) != 1 {
		t.Fatalf("after the last firing: %d queued, %d slots (%d free); want the slot free",
			s.queued(), len(s.pool), len(s.free))
	}
}

// TestEveryEdges: n = 0 schedules nothing and takes no sequence, n = 1
// is one At, deadlines in the past clamp to the present, the last
// deadline saturates instead of wrapping, and a negative period or a
// nil callback panics.
func TestEveryEdges(t *testing.T) {
	s := NewScheduler()
	var order []string
	note := func(what string) func() { return func() { order = append(order, fmt.Sprintf("%v %s", s.Now(), what)) } }
	s.At(time.Second, note("a"))
	s.Every(time.Second, time.Second, 0, note("never"))
	s.Every(time.Second, time.Hour, 1, note("one"))
	s.At(time.Second, note("b"))
	if s.Pending() != 3 || s.seq != 3 {
		t.Fatalf("%d pending, %d sequences taken; want 3 and 3", s.Pending(), s.seq)
	}
	s.Run(50 * time.Second)
	// From t = 50 s: deadlines 30, 45, 60, 75 s clamp to 50, 50, 60, 75.
	s.Every(30*time.Second, 15*time.Second, 4, note("past"))
	s.At(50*time.Second, note("c"))
	// Saturation: max−1 ns, then max twice.
	s.Every(maxTime-1, time.Second, 3, note("sat"))
	s.RunAll(math.MaxUint64)
	want := []string{"1s a", "1s one", "1s b", "50s past", "50s past", "50s c", "1m0s past", "1m15s past"}
	for _, at := range []Time{maxTime - 1, maxTime, maxTime} {
		want = append(want, fmt.Sprintf("%v sat", at))
	}
	if !slices.Equal(order, want) {
		t.Fatalf("fired\n%v\nwant\n%v", order, want)
	}
	for _, c := range []struct {
		name   string
		period Time
		fn     func()
	}{{"negative period", -time.Second, func() {}}, {"nil callback", time.Second, nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Every with a %s did not panic", c.name)
				}
			}()
			s.Every(0, c.period, 2, c.fn)
		}()
	}
}
