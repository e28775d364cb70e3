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

// draws replays the backoff draws node id makes in a newHarness world:
// the DCF draws from its own stream and only when it arms a countdown.
func draws(id pkt.NodeID, n int) []sim.Time {
	rng := sim.NewRNG(1234).Derive(id.String())
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = difs + time.Duration(rng.Intn(cwMin+1))*slotTime
	}
	return out
}

// countdownWorld is node 1 sending one unicast to node 2, 50 m away,
// with a bare transceiver between them that the test keys by hand.
func countdownWorld(t *testing.T) (*harness, *radio.Transceiver) {
	t.Helper()
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	jammer, err := h.medium.Attach(9, mobility.Static{P: geom.Point{X: 25}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, jammer
}

// sent reports how many frames node i has put on the air.
func (h *harness) sent(i int) uint64 {
	n, _, _ := h.macs[i].tr.Counters()
	return n
}

// TestBusyExpiryRedrawsAtBusyEnd pins the eager countdown's instants. A
// send on an idle channel arms DIFS plus a draw. A transmission that
// starts mid-countdown is still on the air at expiry, so the expiry
// reads the carrier busy and arms a defer wake at the instant it ends.
// That wake finds the channel idle and arms DIFS plus a fresh draw,
// and the frame goes out at exactly that expiry.
func TestBusyExpiryRedrawsAtBusyEnd(t *testing.T) {
	h, jammer := countdownWorld(t)
	d := h.macs[0]
	w := draws(1, 2)
	if !d.Send(testPacket(1, 2), 2) {
		t.Fatal("queue refused packet")
	}
	if d.stepKind != stepBackoff || d.step.At() != w[0] {
		t.Fatalf("send on an idle channel armed kind %v at %v, want a backoff expiry at DIFS + draw = %v", d.stepKind, d.step.At(), w[0])
	}
	jamAt := w[0] - slotTime
	busyEnd := jamAt + time.Millisecond
	h.sched.At(jamAt, func() {
		if err := jammer.StartTx("jam", time.Millisecond); err != nil {
			t.Error(err)
		}
	})

	h.sched.Run(w[0])
	if h.sent(0) != 0 || d.stepKind != stepDeferWake || d.step.At() != busyEnd {
		t.Fatalf("expiry into a busy channel: %d frames sent, kind %v at %v; want none and a defer wake at the busy end %v",
			h.sent(0), d.stepKind, d.step.At(), busyEnd)
	}
	h.sched.Run(busyEnd)
	if d.stepKind != stepBackoff || d.step.At() != busyEnd+w[1] {
		t.Fatalf("wake at the busy end armed kind %v at %v, want a backoff expiry at busy end + DIFS + a fresh draw = %v",
			d.stepKind, d.step.At(), busyEnd+w[1])
	}
	if got := d.Stats().BackoffWait; got != w[0]+w[1] {
		t.Fatalf("BackoffWait %v, want both countdowns armed, %v", got, w[0]+w[1])
	}
	h.sched.Run(busyEnd + w[1] - 1)
	if h.sent(0) != 0 {
		t.Fatal("frame went out before its second countdown expired")
	}
	h.sched.Run(busyEnd + w[1])
	if h.sent(0) != 1 || !d.tr.Transmitting() {
		t.Fatalf("%d frames sent at busy end + DIFS + draw, want the data frame on the air", h.sent(0))
	}
	h.sched.Run(time.Second)
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
	}
}

// TestOnsetAtExactExpiryInstant pins both orders of the tightest race:
// a transmission that starts at the very instant the countdown expires.
// Same-instant events run in the order they were armed. A start armed
// before the countdown runs first, so the expiry reads the channel busy
// and defers to the busy end. A start armed after it runs second, so
// the frame goes out at the expiry and the two collide at node 2. Both
// orders end in one acknowledged delivery.
func TestOnsetAtExactExpiryInstant(t *testing.T) {
	for _, tc := range []struct {
		name     string
		jamFirst bool
	}{{"onset-before-pop", true}, {"pop-before-onset", false}} {
		t.Run(tc.name, func(t *testing.T) {
			h, jammer := countdownWorld(t)
			d := h.macs[0]
			exp := draws(1, 1)[0]
			jam := func() {
				h.sched.At(exp, func() {
					if err := jammer.StartTx("jam", time.Millisecond); err != nil {
						t.Error(err)
					}
				})
			}
			if tc.jamFirst {
				jam()
			}
			if !d.Send(testPacket(1, 2), 2) {
				t.Fatal("queue refused packet")
			}
			if !tc.jamFirst {
				jam()
			}
			h.sched.Run(exp)
			if tc.jamFirst {
				if h.sent(0) != 0 || d.stepKind != stepDeferWake || d.step.At() != exp+time.Millisecond {
					t.Fatalf("%d frames sent, kind %v at %v; want none and a defer wake at %v",
						h.sent(0), d.stepKind, d.step.At(), exp+time.Millisecond)
				}
			} else if h.sent(0) != 1 {
				t.Fatalf("%d frames sent at the expiry, want the data frame", h.sent(0))
			}
			h.sched.Run(time.Second)
			if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
				t.Fatalf("send outcome %+v, want one acknowledged completion", h.dones[0])
			}
			if retries := d.Stats().Retries; (retries > 0) == tc.jamFirst {
				t.Fatalf("%d retries: the collision must cost one only when the frame went out at the expiry", retries)
			}
		})
	}
}
