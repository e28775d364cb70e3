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

type received struct {
	p         *pkt.Packet
	from      pkt.NodeID
	broadcast bool
}

type sendDone struct {
	p  *pkt.Packet
	to pkt.NodeID
	ok bool
}

type harness struct {
	sched  *sim.Scheduler
	medium *radio.Medium
	macs   []*DCF
	rxs    [][]received
	dones  [][]sendDone
}

// newHarness builds MACs at fixed positions on a shared medium.
func newHarness(t *testing.T, rangeM float64, positions []geom.Point) *harness {
	t.Helper()
	return newHarnessCfg(t, rangeM, positions, DefaultConfig())
}

// newHarnessCfg is newHarness with a custom MAC config.
func newHarnessCfg(t *testing.T, rangeM float64, positions []geom.Point, cfg Config) *harness {
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
		m, err := New(h.sched, rng.Derive(id.String()), h.medium, id,
			mobility.Static{P: p}, cfg, cb)
		if err != nil {
			t.Fatal(err)
		}
		h.macs = append(h.macs, m)
	}
	return h
}

func testPacket(src, dst pkt.NodeID) *pkt.Packet {
	return pkt.NewPacket(src, dst, &pkt.Hello{Seq: 9})
}

func TestUnicastDeliveredAndAcked(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	p := testPacket(1, 2)
	h.sched.After(0, func() {
		if !h.macs[0].Send(p, 2) {
			t.Error("Send rejected")
		}
	})
	h.sched.Run(time.Second)

	if len(h.rxs[1]) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(h.rxs[1]))
	}
	if got := h.rxs[1][0]; got.p != p || got.from != 1 || got.broadcast {
		t.Fatalf("bad reception %+v", got)
	}
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("sender completion %+v, want ok", h.dones[0])
	}
	if s := h.macs[0].Stats(); s.UnicastSent != 1 || s.Failures != 0 {
		t.Fatalf("sender stats %+v", s)
	}
	if s := h.macs[1].Stats(); s.Channel.TxByLayer[metrics.LayerMAC] != 1 || s.Delivered != 1 {
		t.Fatalf("receiver stats %+v", s)
	}
}

func TestBroadcastDeliveredToAllInRange(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}, {X: 80}, {X: 500}})
	p := testPacket(1, pkt.Broadcast)
	h.sched.After(0, func() { h.macs[0].Send(p, pkt.Broadcast) })
	h.sched.Run(time.Second)

	for _, i := range []int{1, 2} {
		if len(h.rxs[i]) != 1 || !h.rxs[i][0].broadcast {
			t.Fatalf("node %d receptions %+v, want 1 broadcast", i+1, h.rxs[i])
		}
	}
	if len(h.rxs[3]) != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
	// Broadcast completes immediately with ok=true and no ACKs.
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok {
		t.Fatalf("broadcast completion %+v", h.dones[0])
	}
	for i := 1; i < 4; i++ {
		if s := h.macs[i].Stats(); s.Channel.TxByLayer[metrics.LayerMAC] != 0 {
			t.Fatalf("node %d sent ACK for broadcast", i+1)
		}
	}
}

func TestUnicastToUnreachableFailsAfterRetries(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 500}})
	p := testPacket(1, 2)
	h.sched.After(0, func() { h.macs[0].Send(p, 2) })
	h.sched.Run(5 * time.Second)

	if len(h.dones[0]) != 1 || h.dones[0][0].ok {
		t.Fatalf("completion %+v, want failure", h.dones[0])
	}
	s := h.macs[0].Stats()
	if s.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", s.Failures)
	}
	if s.Retries != uint64(DefaultConfig().RetryLimit) {
		t.Fatalf("Retries = %d, want %d", s.Retries, DefaultConfig().RetryLimit)
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	h.sched.After(0, func() {
		accepted := 0
		for i := 0; i < DefaultConfig().QueueCap+10; i++ {
			if h.macs[0].Send(testPacket(1, 2), 2) {
				accepted++
			}
		}
		// One frame goes in flight immediately; the queue holds QueueCap.
		if accepted < DefaultConfig().QueueCap {
			t.Errorf("accepted %d, want >= %d", accepted, DefaultConfig().QueueCap)
		}
	})
	h.sched.Run(10 * time.Second)
	if s := h.macs[0].Stats(); s.QueueDrops == 0 {
		t.Fatal("no queue drops recorded")
	}
	// Everything accepted must eventually complete.
	if len(h.dones[0]) == 0 {
		t.Fatal("no completions")
	}
}

func TestQueuedFramesAllDelivered(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	const n = 20
	h.sched.After(0, func() {
		for i := 0; i < n; i++ {
			h.macs[0].Send(testPacket(1, 2), 2)
		}
	})
	h.sched.Run(time.Second)
	if len(h.rxs[1]) != n {
		t.Fatalf("delivered %d, want %d", len(h.rxs[1]), n)
	}
	if len(h.dones[0]) != n {
		t.Fatalf("completions %d, want %d", len(h.dones[0]), n)
	}
}

// TestDuplicateFilteringOnRetransmission loses one ACK at the sender. A
// raw transmitter in range of node 1 only goes on air as node 2 takes
// the first data frame and stays there past the ACK, which collides at
// node 1. Node 1 retransmits, and node 2 must acknowledge the copy
// again without delivering it twice.
func TestDuplicateFilteringOnRetransmission(t *testing.T) {
	h := newHarness(t, 60, []geom.Point{{X: 0}, {X: 50}})
	jammer, err := h.medium.Attach(3, mobility.Static{P: geom.Point{X: -50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcv := h.macs[1]
	deliver := rcv.cb.OnReceive
	rcv.cb.OnReceive = func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
		if len(h.rxs[1]) == 0 {
			if err := jammer.StartTx("jam", 2*(rcv.cfg.SIFS+rcv.ackAirtime())); err != nil {
				t.Error(err)
			}
		}
		deliver(p, from, broadcast)
	}
	const n = 3
	h.sched.After(0, func() {
		for i := range n {
			h.macs[0].Send(pkt.NewPacket(1, 2, &pkt.Hello{Seq: uint32(i + 1)}), 2)
		}
	})
	h.sched.Run(time.Second)

	if s := rcv.Stats(); s.DupsFiltered < 1 {
		t.Fatalf("receiver filtered %d duplicates (sender retried %d times), want at least 1", s.DupsFiltered, h.macs[0].Stats().Retries)
	}
	// One delivery per MAC sequence number: each frame once, in order.
	if len(h.rxs[1]) != n {
		t.Fatalf("delivered %d frames, want %d", len(h.rxs[1]), n)
	}
	for i, r := range h.rxs[1] {
		if seq := r.p.Body.(*pkt.Hello).Seq; seq != uint32(i+1) {
			t.Fatalf("delivery %d carries frame %d, want %d", i, seq, i+1)
		}
	}
	if len(h.dones[0]) != n {
		t.Fatalf("%d send completions, want %d", len(h.dones[0]), n)
	}
	for _, d := range h.dones[0] {
		if !d.ok {
			t.Fatal("a send failed: the retransmission was not acknowledged")
		}
	}
}

func TestContendingSendersBothSucceed(t *testing.T) {
	// Both senders in range of each other: carrier sense + backoff must
	// serialise them with high probability.
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 30}, {X: 60}})
	const n = 50
	h.sched.After(0, func() {
		for i := 0; i < n; i++ {
			h.macs[0].Send(testPacket(1, 2), 2)
			h.macs[2].Send(testPacket(3, 2), 2)
		}
	})
	h.sched.Run(30 * time.Second)

	okFrom := map[pkt.NodeID]int{}
	for _, r := range h.rxs[1] {
		okFrom[r.from]++
	}
	if okFrom[1] != n || okFrom[3] != n {
		t.Fatalf("deliveries from contending senders = %v, want %d each", okFrom, n)
	}
}

func TestAirtimeComputation(t *testing.T) {
	d := &DCF{cfg: DefaultConfig()}
	// 64-byte payload: 192us + (28+64)*8 bits / 2 Mbps = 192us + 368us.
	want := 192*time.Microsecond + 368*time.Microsecond
	if got := d.airtime(64); got != want {
		t.Fatalf("airtime(64) = %v, want %v", got, want)
	}
	// ACK: 192us + 14*8/2e6 = 192us + 56us.
	if got := d.ackAirtime(); got != 248*time.Microsecond {
		t.Fatalf("ackAirtime = %v, want 248us", got)
	}
}

func TestBytesSentAccounting(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	p := testPacket(1, 2)
	h.sched.After(0, func() { h.macs[0].Send(p, 2) })
	h.sched.Run(time.Second)

	wantSender := uint64(DefaultConfig().HeaderBytes + p.WireSize())
	bytesSent := func(d *DCF) (n uint64) {
		for _, b := range d.Stats().Channel.BytesByLayer {
			n += b
		}
		return n
	}
	if got := bytesSent(h.macs[0]); got != wantSender {
		t.Fatalf("sender sent %d bytes, want %d", got, wantSender)
	}
	if got := bytesSent(h.macs[1]); got != uint64(DefaultConfig().AckBytes) {
		t.Fatalf("receiver sent %d bytes, want %d (ACK)", got, DefaultConfig().AckBytes)
	}
}

func TestHiddenTerminalCausesRetries(t *testing.T) {
	// 1 and 3 cannot hear each other; both bombard 2. With no handshake
	// to reserve the channel we expect collisions at 2 and therefore
	// retries at the senders.
	h := newHarness(t, 60, []geom.Point{{X: 0}, {X: 50}, {X: 100}})
	const n = 40
	h.sched.After(0, func() {
		for i := 0; i < n; i++ {
			h.macs[0].Send(testPacket(1, 2), 2)
			h.macs[2].Send(testPacket(3, 2), 2)
		}
	})
	h.sched.Run(60 * time.Second)
	if h.macs[0].Stats().Retries+h.macs[2].Stats().Retries == 0 {
		t.Fatal("hidden-terminal senders never retried")
	}
}

// TestBindReplacesCallbacks pins the DCF's runtime binding: once the
// network layer binds its handlers, they receive every completion and
// delivery, and the Callbacks New was given receive none.
func TestBindReplacesCallbacks(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}, {X: 50}})
	var rxs []received
	var dones []sendDone
	h.macs[0].Bind(func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
		rxs = append(rxs, received{p: p, from: from, broadcast: broadcast})
	}, func(p *pkt.Packet, to pkt.NodeID, ok bool) {
		dones = append(dones, sendDone{p: p, to: to, ok: ok})
	})

	acked, lost, bcast := testPacket(1, 2), testPacket(1, 9), testPacket(2, pkt.Broadcast)
	h.sched.After(0, func() { h.macs[0].Send(acked, 2) })
	h.sched.After(time.Second, func() { h.macs[0].Send(lost, 9) })
	h.sched.After(3*time.Second, func() { h.macs[1].Send(bcast, pkt.Broadcast) })
	h.sched.Run(5 * time.Second)

	want := []sendDone{{p: acked, to: 2, ok: true}, {p: lost, to: 9, ok: false}}
	if len(dones) != len(want) || dones[0] != want[0] || dones[1] != want[1] {
		t.Errorf("bound send-done got %+v, want %+v", dones, want)
	}
	if len(rxs) != 1 || rxs[0] != (received{p: bcast, from: 2, broadcast: true}) {
		t.Errorf("bound receive got %+v, want the broadcast from 2", rxs)
	}
	if len(h.rxs[0]) != 0 || len(h.dones[0]) != 0 {
		t.Errorf("New's callbacks still called: receive %+v, send-done %+v", h.rxs[0], h.dones[0])
	}
}
