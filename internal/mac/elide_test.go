package mac

import (
	"testing"
	"time"

	"anongossip/internal/geom"
)

// TestElideStepHorizon pins the accounting rule the golden digests
// depend on: a cancelled step timer counts as an elided event only if
// its deadline lies within the run horizon — the eager-timer code
// never executed events past the end of the run, so counting those
// would inflate the logical event total.
func TestElideStepHorizon(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}})
	d := h.macs[0]

	// No step pending: a no-op.
	d.elideStep()
	if got := d.Stats().ElidedEvents; got != 0 {
		t.Fatalf("elideStep with no timer counted %d", got)
	}

	// In-horizon cancel counts.
	d.SetHorizon(5 * time.Millisecond)
	d.step = h.sched.After(time.Millisecond, func() {})
	d.elideStep()
	if got := d.Stats().ElidedEvents; got != 1 {
		t.Fatalf("in-horizon elision counted %d, want 1", got)
	}
	if !d.step.IsZero() {
		t.Fatal("elideStep did not clear the step handle")
	}

	// Past-horizon cancel is excluded.
	d.step = h.sched.After(10*time.Millisecond, func() {})
	d.elideStep()
	if got := d.Stats().ElidedEvents; got != 1 {
		t.Fatalf("past-horizon elision counted (total %d), want it excluded", got)
	}

	// Zero horizon means no bound: everything counts.
	d.SetHorizon(0)
	d.step = h.sched.After(time.Hour, func() {})
	d.elideStep()
	if got := d.Stats().ElidedEvents; got != 2 {
		t.Fatalf("unbounded elision counted %d, want 2", got)
	}

	// An already-fired timer must not count: nothing was elided.
	d.step = h.sched.After(time.Microsecond, func() {})
	h.sched.Run(h.sched.Now() + time.Second)
	steps := d.step
	d.step = steps
	d.elideStep()
	if got := d.Stats().ElidedEvents; got != 2 {
		t.Fatalf("fired timer counted as elided (total %d)", got)
	}
}

// TestLateAckElidesContentionStep engages the elision on the race it
// defends against: an ACK that lands after the sender has timed out
// and re-entered contention. The old code let the abandoned backoff
// timer fire as an inflight-guarded no-op; the new code cancels it and
// counts the elision. With instantaneous propagation this race never
// arises organically, so the test steps the kernel to the vulnerable
// state and injects the late ACK directly.
func TestLateAckElidesContentionStep(t *testing.T) {
	// Receiver far out of range: every data frame goes unacknowledged,
	// so the sender cycles through retries — ack timeout, re-contention
	// — with a live backoff step each cycle.
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 5000}})
	d := h.macs[0]
	if !d.Send(testPacket(1, 2), 2) {
		t.Fatal("queue refused packet")
	}
	for {
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before a retry re-entered contention")
		}
		if d.inflight != nil && d.inflight.attempt > 0 && !d.step.IsZero() && !d.step.Done() {
			break
		}
	}
	// Every completed transmission folds its airtime-end step into the
	// radio's TxDone hook: exactly one transmission (attempt 0) has
	// left the air by the time the retry is mid-backoff.
	attempts := uint64(d.inflight.attempt)
	if got := d.Stats().ElidedEvents; got != attempts {
		t.Fatalf("%d completed transmissions elided %d events, want one each", attempts, got)
	}
	// The sender is mid-backoff for a retry. The original ACK finally
	// arrives.
	d.ReceiveFrame(&frame{kind: frameAck, src: 2, dst: 1, seq: d.inflight.frm.seq}, 2, true)
	if got := d.Stats().ElidedEvents; got != attempts+1 {
		t.Fatalf("late ACK elided %d events total, want the abandoned backoff step on top of %d",
			got, attempts)
	}
	if d.inflight != nil {
		t.Fatal("late ACK did not complete the frame")
	}
	h.sched.Run(h.sched.Now() + time.Second)
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
	}
}

// TestElisionEventsParity replays the sum the scenario layer reports:
// scheduler-processed plus elided must be deterministic per seed — two
// identical runs agree exactly.
func TestElisionEventsParity(t *testing.T) {
	run := func() uint64 {
		h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 40}, {X: 80}})
		for i := 0; i < 5; i++ {
			h.macs[0].Send(testPacket(1, 3), 3)
			h.macs[2].Send(testPacket(3, 1), 1)
		}
		h.sched.Run(time.Second)
		total := h.sched.Processed()
		for _, m := range h.macs {
			total += m.Stats().ElidedEvents
		}
		return total
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("logical event totals diverged across identical runs: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("degenerate run: no events")
	}
}
