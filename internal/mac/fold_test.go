package mac

import (
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// newFoldHarness is newHarness with the fold switched by the caller, so
// the differential tests below can cross the eager reference cycle
// against the folding production build on an otherwise identical world.
func newFoldHarness(t *testing.T, fold bool, rangeM float64, positions []geom.Point) *harness {
	t.Helper()
	h := &harness{
		sched: sim.NewScheduler(),
		rxs:   make([][]received, len(positions)),
		dones: make([][]sendDone, len(positions)),
	}
	h.medium = radio.NewMedium(h.sched, radio.Params{Range: rangeM})
	rng := sim.NewRNG(1234)
	for i, p := range positions {
		id := pkt.NodeID(i + 1)
		cb := Callbacks{
			OnReceive: func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
				h.rxs[i] = append(h.rxs[i], received{p: p, from: from, broadcast: broadcast})
			},
			OnSendDone: func(p *pkt.Packet, to pkt.NodeID, ok bool) {
				h.dones[i] = append(h.dones[i], sendDone{p: p, to: to, ok: ok})
			},
		}
		m, err := newDCF(h.sched, rng.Derive(id.String()), h.medium, id,
			mobility.Static{P: p}, DefaultConfig(), cb, fold)
		if err != nil {
			t.Fatal(err)
		}
		h.macs = append(h.macs, m)
	}
	return h
}

// stepToBackoff advances the run until d is mid-contention with a live
// backoff step, and returns that step's queue deadline.
func stepToBackoff(t *testing.T, h *harness, d *DCF) sim.Time {
	t.Helper()
	for {
		if d.inflight != nil && d.stepKind == stepBackoff && !d.step.IsZero() && !d.step.Done() {
			return d.step.At()
		}
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before a backoff step was armed")
		}
	}
}

// TestFoldPostponedCountdownElidesHop drives the fold end to end: a
// proven busy onset mid-countdown postpones the backoff step in place,
// the kernel re-enqueues the hop without firing it (one elided event),
// and the wake at the proven-idle instant proceeds straight to a fresh
// countdown — no re-probe, no extra events, delivery unchanged. It
// builds its nodes with the exported New (newHarness), pinning that
// the production constructor folds.
func TestFoldPostponedCountdownElidesHop(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	d := h.macs[0]
	if !d.Send(testPacket(1, 2), 2) {
		t.Fatal("queue refused packet")
	}
	exp := stepToBackoff(t, h, d)
	if !d.folding || !d.foldOK {
		t.Fatalf("folding=%v foldOK=%v, want an armed fold on a static node", d.folding, d.foldOK)
	}

	// A neighbour's transmission, provably heard, ends shortly after
	// our countdown would have expired.
	end := exp + 200*time.Microsecond
	d.CarrierOnset(end, true)
	if d.foldVK != end || !d.foldOK {
		t.Fatalf("after proven onset: foldVK=%v foldOK=%v, want vk=%v and fold intact",
			d.foldVK, d.foldOK, end)
	}
	if d.stepKind != stepDeferWake {
		t.Fatal("postponed countdown did not flip to a defer wake")
	}
	if d.step.At() != exp {
		t.Fatalf("queue deadline moved to %v on postpone, want it parked at %v until the hop", d.step.At(), exp)
	}

	h.sched.Run(h.sched.Now() + time.Second)
	if got := h.sched.Elided(); got != 1 {
		t.Fatalf("kernel elided %d hops, want exactly 1 for the postponed countdown", got)
	}
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
	}
}

// TestLateAckMidFoldedCountdown is the cancel race the fold must not
// break: the step is postponed (its queue entry still parked at the
// original deadline) when a late ACK lands and elideStep cancels it.
// The elision must count against the original queue deadline — the
// position the eager chain's timer held — not the postpone target,
// or horizon accounting would drift.
func TestLateAckMidFoldedCountdown(t *testing.T) {
	h := newFoldHarness(t, true, 100, []geom.Point{{X: 0}, {X: 5000}})
	d := h.macs[0]
	if !d.Send(testPacket(1, 2), 2) {
		t.Fatal("queue refused packet")
	}
	for {
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before a retry re-entered contention")
		}
		if d.inflight != nil && d.inflight.attempt > 0 &&
			d.stepKind == stepBackoff && !d.step.IsZero() && !d.step.Done() {
			break
		}
	}
	exp := d.step.At()
	d.CarrierOnset(exp+time.Millisecond, true)
	if d.stepKind != stepDeferWake || d.step.At() != exp {
		t.Fatalf("onset did not postpone in place: kind=%v at=%v want deadline %v",
			d.stepKind, d.step.At(), exp)
	}

	attempts := uint64(d.inflight.attempt)
	before := d.Stats().ElidedEvents
	d.ReceiveFrame(&frame{kind: frameAck, src: 2, dst: 1, seq: d.inflight.frm.seq}, 2, true)
	if got := d.Stats().ElidedEvents; got != before+1 {
		t.Fatalf("late ACK mid-fold elided %d events (had %d), want exactly one more", got, before)
	}
	if d.inflight != nil {
		t.Fatal("late ACK did not complete the frame")
	}
	if !d.step.IsZero() {
		t.Fatal("elideStep left the postponed step handle live")
	}
	_ = attempts
	h.sched.Run(h.sched.Now() + time.Second)
	if h.sched.Elided() != 0 {
		t.Fatalf("cancelled fold still elided %d kernel hops, want 0 — the entry must die as a tombstone",
			h.sched.Elided())
	}
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
	}
}

// TestUnprovenOnsetRestoresCountdown: a band-region (unproven) onset
// invalidates the fold. An already-issued postpone must be revoked so
// the step fires at its original queue position and re-probes exactly
// as the reference chain would — zero kernel hops elided.
func TestUnprovenOnsetRestoresCountdown(t *testing.T) {
	h := newFoldHarness(t, true, 100, []geom.Point{{X: 0}, {X: 50}})
	d := h.macs[0]
	if !d.Send(testPacket(1, 2), 2) {
		t.Fatal("queue refused packet")
	}
	exp := stepToBackoff(t, h, d)
	d.CarrierOnset(exp+500*time.Microsecond, true)
	if d.stepKind != stepDeferWake {
		t.Fatal("proven onset did not postpone the countdown")
	}
	d.CarrierOnset(exp+time.Millisecond, false)
	if d.foldOK {
		t.Fatal("unproven onset left the fold armed")
	}
	h.sched.Run(h.sched.Now() + time.Second)
	if got := h.sched.Elided(); got != 0 {
		t.Fatalf("revoked postpone still elided %d hops, want 0 — Unpostpone must restore the original fire",
			got)
	}
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
	}
}

// TestOnsetAtExactExpiryInstant pins both seq orders of the tightest
// race: a busy onset landing on the very instant the folded countdown
// expires. Onset processed first → the hop is elided and the wake
// slides to the busy end. Pop processed first → the countdown fires
// proven-idle and transmits; the onset then finds no foldable step and
// must be a no-op. Both orders must complete delivery with exact
// accounting.
func TestOnsetAtExactExpiryInstant(t *testing.T) {
	t.Run("onset-before-pop", func(t *testing.T) {
		h := newFoldHarness(t, true, 100, []geom.Point{{X: 0}, {X: 50}})
		d := h.macs[0]
		if !d.Send(testPacket(1, 2), 2) {
			t.Fatal("queue refused packet")
		}
		exp := stepToBackoff(t, h, d)
		// The onset's event executes at exp with an earlier seq than the
		// step's pop; its busy period extends past the expiry.
		d.CarrierOnset(exp+300*time.Microsecond, true)
		h.sched.Run(h.sched.Now() + time.Second)
		if got := h.sched.Elided(); got != 1 {
			t.Fatalf("onset-before-pop elided %d hops, want 1", got)
		}
		if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
			t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
		}
	})
	t.Run("pop-before-onset", func(t *testing.T) {
		h := newFoldHarness(t, true, 100, []geom.Point{{X: 0}, {X: 50}})
		d := h.macs[0]
		if !d.Send(testPacket(1, 2), 2) {
			t.Fatal("queue refused packet")
		}
		exp := stepToBackoff(t, h, d)
		// Drive the run up to and THROUGH the pop at exp, then deliver
		// the same-instant onset after it — the later-seq order.
		for h.sched.Now() < exp {
			if _, done := h.sched.RunAll(1); done {
				break
			}
		}
		d.CarrierOnset(exp+300*time.Microsecond, true)
		h.sched.Run(h.sched.Now() + time.Second)
		if got := h.sched.Elided(); got != 0 {
			t.Fatalf("pop-before-onset elided %d hops, want 0 — the countdown fired first", got)
		}
		if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
			t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
		}
	})
}

// TestFoldDifferentialSerial is the serial-vs-fold differential the CI
// race job runs: the identical contention workload with folding
// disabled and enabled must produce identical deliveries, identical
// completion outcomes, and an identical logical event total
// (processed + kernel hops + MAC elisions) — while the folded run
// demonstrably elides kernel hops.
func TestFoldDifferentialSerial(t *testing.T) {
	run := func(fold bool) (*harness, uint64) {
		h := newFoldHarness(t, fold, 100, []geom.Point{{X: 0}, {X: 40}, {X: 80}})
		for i := 0; i < 5; i++ {
			h.macs[0].Send(testPacket(1, 3), 3)
			h.macs[2].Send(testPacket(3, 1), 1)
		}
		h.sched.Run(time.Second)
		total := h.sched.Processed() + h.sched.Elided()
		for _, m := range h.macs {
			total += m.Stats().ElidedEvents
		}
		return h, total
	}
	ref, refTotal := run(false)
	fold, foldTotal := run(true)

	if refTotal != foldTotal {
		t.Fatalf("logical event totals diverged: reference %d, folded %d", refTotal, foldTotal)
	}
	if fold.sched.Elided() == 0 {
		t.Fatal("folded run elided no kernel hops: the differential is vacuous")
	}
	if ref.sched.Processed() <= fold.sched.Processed() {
		t.Fatalf("folding did not reduce processed events: reference %d, folded %d",
			ref.sched.Processed(), fold.sched.Processed())
	}
	for i := range ref.macs {
		if len(ref.rxs[i]) != len(fold.rxs[i]) {
			t.Fatalf("node %d receptions diverged: reference %d, folded %d",
				i+1, len(ref.rxs[i]), len(fold.rxs[i]))
		}
		if len(ref.dones[i]) != len(fold.dones[i]) {
			t.Fatalf("node %d completions diverged: reference %d, folded %d",
				i+1, len(ref.dones[i]), len(fold.dones[i]))
		}
		for j := range ref.dones[i] {
			if ref.dones[i][j].ok != fold.dones[i][j].ok {
				t.Fatalf("node %d completion %d outcome diverged", i+1, j)
			}
		}
		rs, fs := ref.macs[i].Stats(), fold.macs[i].Stats()
		if rs.Delivered != fs.Delivered || rs.Failures != fs.Failures ||
			rs.UnicastSent != fs.UnicastSent || rs.Retries != fs.Retries {
			t.Fatalf("node %d stats diverged: reference %+v, folded %+v", i+1, rs, fs)
		}
	}
}

// TestCarrierListenerOnlyWhileCountingDown pins when the radio may call
// the DCF: its transceiver's carrier listener is the DCF exactly while
// the fold is on and a contention step is pending, and nil otherwise.
// Node 4's one frame goes to node 5, out of range, and a late ACK
// lands in one of its retry countdowns, so elideStep cancels a pending
// step too. A stale registration only costs speed — the onset guard
// ignores it — so no golden can catch one; this test can.
func TestCarrierListenerOnlyWhileCountingDown(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 40}, {X: 80}, {X: 40, Y: 40}, {X: 5000}})
	var counting, idle int
	check := func(when string) {
		t.Helper()
		for i, d := range h.macs {
			want := d.folding && !d.step.IsZero() && !d.step.Done()
			got := d.tr.CarrierListener()
			if (got != nil) != want || (got != nil && got != radio.CarrierListener(d)) {
				t.Fatalf("%s at %v: node %d has listener %T (own DCF %v), want it registered=%v",
					when, h.sched.Now(), i+1, got, got == radio.CarrierListener(d), want)
			}
			if want {
				counting++
			} else {
				idle++
			}
		}
	}
	for i := 0; i < 3; i++ {
		src := pkt.NodeID(i + 1)
		for j := 0; j < 3; j++ {
			dst := pkt.NodeID((i+j+1)%3 + 1)
			h.macs[i].Send(testPacket(src, dst), dst)
			h.macs[i].Send(testPacket(src, pkt.Broadcast), pkt.Broadcast)
		}
	}
	late := h.macs[3]
	late.Send(testPacket(4, 5), 5)
	check("after the sends")

	acked := false
	for {
		_, done := h.sched.RunAll(1)
		check("after an event")
		if !acked && late.inflight != nil && late.inflight.attempt > 0 &&
			!late.step.IsZero() && !late.step.Done() {
			late.ReceiveFrame(&frame{kind: frameAck, src: 5, dst: 4, seq: late.inflight.frm.seq}, 5, true)
			acked = true
			check("after the late ACK")
		}
		if done {
			break
		}
	}
	if !acked {
		t.Fatal("node 4 never re-entered contention: the late ACK was not exercised")
	}
	if counting == 0 || idle == 0 {
		t.Fatalf("vacuous: %d registered and %d idle observations", counting, idle)
	}
	for i := 0; i < 3; i++ {
		if len(h.dones[i]) != 6 {
			t.Fatalf("node %d completed %d sends, want 6", i+1, len(h.dones[i]))
		}
	}
}
