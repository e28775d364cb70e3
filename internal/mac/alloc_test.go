package mac

import (
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/metrics"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
	"anongossip/internal/radio"
	"anongossip/internal/sim"
)

// TestBroadcastCycleAllocatesNothing pins the MAC's share of the
// transmission path: a broadcast Send through contention, airtime at
// nine receivers and OnSendDone allocates nothing — the queue holds the
// frame by value in its reused backing array, and the frame goes on the
// air by pointer from one of the DCF's two head records.
func TestBroadcastCycleAllocatesNothing(t *testing.T) {
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, radio.Params{Range: 100})
	rng := sim.NewRNG(7)
	var received, done int
	var sender *DCF
	for i := 0; i < 10; i++ {
		id := pkt.NodeID(i + 1)
		d, err := New(sched, rng.Derive(id.String()), medium, id,
			mobility.Static{P: geom.Point{X: 5 * float64(i)}}, DefaultConfig(), Callbacks{
				OnReceive:  func(*pkt.Packet, pkt.NodeID, bool) { received++ },
				OnSendDone: func(*pkt.Packet, pkt.NodeID, bool) { done++ },
			})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sender = d
		}
	}
	p := testPacket(1, pkt.Broadcast)
	cycle := func() {
		if !sender.Send(p, pkt.Broadcast) {
			t.Fatal("Send refused on an idle MAC")
		}
		// DIFS + CWMin slots + airtime is under a millisecond.
		sched.Run(sched.Now() + 2*time.Millisecond)
	}
	cycle()
	received, done = 0, 0
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("broadcast Send → OnSendDone cycle allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call of its own.
	if want := (runs + 1) * 9; received != want || done != runs+1 {
		t.Fatalf("%d receptions and %d completions, want %d and %d", received, done, want, runs+1)
	}
}

// TestUnicastCycleAllocatesNothing: a unicast Send through contention,
// airtime, the receiver's ACK and OnSendDone allocates nothing at either
// end — the sender's head record is reused, the receiver queues its ACK
// in its response FIFO and sends it from DCF-owned storage.
func TestUnicastCycleAllocatesNothing(t *testing.T) {
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, radio.Params{Range: 100})
	rng := sim.NewRNG(7)
	var received, acked int
	var macs []*DCF
	for i := 0; i < 2; i++ {
		id := pkt.NodeID(i + 1)
		d, err := New(sched, rng.Derive(id.String()), medium, id,
			mobility.Static{P: geom.Point{X: 50 * float64(i)}}, DefaultConfig(), Callbacks{
				OnReceive: func(*pkt.Packet, pkt.NodeID, bool) { received++ },
				OnSendDone: func(_ *pkt.Packet, _ pkt.NodeID, ok bool) {
					if ok {
						acked++
					}
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		macs = append(macs, d)
	}
	p := testPacket(1, 2)
	cycle := func() {
		if !macs[0].Send(p, 2) {
			t.Fatal("Send refused on an idle MAC")
		}
		// DIFS + CWMin slots + airtime + SIFS + ACK is under 2 ms.
		sched.Run(sched.Now() + 3*time.Millisecond)
	}
	cycle()
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("unicast Send → ACK → OnSendDone cycle allocates %v times, want 0", allocs)
	}
	// One cycle before AllocsPerRun, and its own warm-up call.
	const n = runs + 2
	if received != n || acked != n || macs[1].Stats().Channel.TxByLayer[metrics.LayerMAC] != n {
		t.Fatalf("%d receptions, %d acknowledged completions and %d ACKs, want %d each",
			received, acked, macs[1].Stats().Channel.TxByLayer[metrics.LayerMAC], n)
	}
}

// TestDuplicateFilterAllocatesNothing: the unicast duplicate filter
// drops a repeated (sender, seq), passes a new seq or a new sender, and
// once it knows its senders neither answer allocates.
func TestDuplicateFilterAllocatesNothing(t *testing.T) {
	d := newHarness(t, 100, []geom.Point{{X: 0}}).macs[0]
	frames := make([]*frame, 8)
	for i := range frames {
		frames[i] = &frame{kind: frameData, src: pkt.NodeID(i + 2), dst: d.id, seq: 1}
	}
	for _, f := range frames {
		if d.duplicate(f) || !d.duplicate(f) {
			t.Fatalf("first frame from %v filtered, or its repeat passed", f.src)
		}
	}
	if f := (&frame{src: frames[0].src, seq: 2}); d.duplicate(f) {
		t.Fatal("a new seq from a known sender filtered")
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		f := frames[i%len(frames)]
		f.seq++
		d.duplicate(f)
		d.duplicate(f)
		i++
	}); n != 0 {
		t.Fatalf("duplicate filtering allocates %v times per frame pair, want 0", n)
	}
}

// TestForeignValueOnMediumIgnored: the MAC shares the medium with
// whatever else transmits on it and acts only on its own *frame PDUs —
// anything else, a frame by value included, is dropped without effect.
func TestForeignValueOnMediumIgnored(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}})
	raw, err := h.medium.Attach(99, mobility.Static{P: geom.Point{X: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byValue := frame{kind: frameData, src: 99, dst: pkt.Broadcast, seq: 1, payload: testPacket(99, pkt.Broadcast)}
	for i, v := range []any{"not a frame", byValue, nil} {
		v := v
		h.sched.At(sim.Time(i)*time.Millisecond, func() {
			if err := raw.StartTx(v, 100*time.Microsecond); err != nil {
				t.Error(err)
			}
		})
	}
	h.sched.Run(time.Second)
	if _, delivered, _ := h.macs[0].tr.Counters(); delivered != 3 {
		t.Fatalf("radio delivered %d foreign values to the MAC's node, want 3", delivered)
	}
	if len(h.rxs[0]) != 0 || h.macs[0].Stats() != (Stats{}) {
		t.Fatalf("foreign values reached the network layer or the counters: %d deliveries, %+v", len(h.rxs[0]), h.macs[0].Stats())
	}
}

// TestQueueReusesItsBackingArray: the transmit queue is a head-indexed
// slice. Draining resets it in place, and a queue that never drains
// slides its waiting frames down instead of growing past the popped
// slots, so the array stays bounded by the backlog, not the run length.
func TestQueueReusesItsBackingArray(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	d := h.macs[0]
	const backlog = 10
	sent := 0
	var refill func()
	refill = func() {
		// Top the backlog up every millisecond: the queue is never empty
		// while frames keep completing at its head.
		for d.QueueLen() < backlog && sent < 500 {
			d.Send(testPacket(1, pkt.Broadcast), pkt.Broadcast)
			sent++
		}
		if sent < 500 {
			h.sched.After(time.Millisecond, refill)
		}
	}
	h.sched.After(0, refill)
	h.sched.Run(10 * time.Second)
	if len(h.dones[0]) != 500 || len(h.rxs[1]) != 500 {
		t.Fatalf("%d completions, %d deliveries, want 500 each", len(h.dones[0]), len(h.rxs[1]))
	}
	if c := cap(d.queue.buf); c > 4*backlog {
		t.Errorf("queue backing array grew to %d slots under a standing backlog of %d", c, backlog)
	}
	if d.QueueLen() != 0 || d.queue.head != 0 || len(d.queue.buf) != 0 {
		t.Errorf("drained queue not reset: len %d, head %d", len(d.queue.buf), d.queue.head)
	}
	for _, q := range d.queue.buf[:cap(d.queue.buf)] {
		if q.p != nil {
			t.Fatal("a popped slot still pins its packet")
		}
	}
	for i := range d.head {
		if d.head[i].frm.payload != nil {
			t.Fatal("a finished head record still pins its packet")
		}
	}
}
