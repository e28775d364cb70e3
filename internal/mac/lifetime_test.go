package mac

import (
	"slices"
	"testing"
	"time"

	"anongossip/internal/geom"
	"anongossip/internal/metrics"
	"anongossip/internal/mobility"
	"anongossip/internal/pkt"
)

// listen attaches, for each id, a bare transceiver near the origin
// that logs every MAC frame it is handed, corrupted or not, as the
// frame storage reads when the radio walks its receivers: what any
// receiver would copy. The radio hands a unicast only to its addressee,
// so the listeners take the addressees' ids. bodies logs the hello
// sequence number of every data frame among them.
func listen(t *testing.T, h *harness, ids ...pkt.NodeID) (heard *[]frame, bodies *[]uint32) {
	t.Helper()
	heard, bodies = new([]frame), new([]uint32)
	for i, id := range ids {
		if _, err := h.medium.Attach(id, mobility.Static{P: geom.Point{X: float64(10 * (i + 1))}}, func(raw any, _ pkt.NodeID, _ bool) {
			f := raw.(*frame)
			*heard = append(*heard, *f)
			if f.payload != nil {
				*bodies = append(*bodies, f.payload.Body.(*pkt.Hello).Seq)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return heard, bodies
}

// TestLateAckRecordOutlivesRetransmission: an ACK that arrives while the
// frame's own retransmission is on the air finishes the frame at once,
// but neither the record behind the frame nor its packet is let go until
// the radio has walked the retransmission's receivers — every receiver
// reads the original frame and body, the next frame takes the other head
// record, and only at TxDone is the first record released and the packet
// handed back (OnSendDone), for the sender to rebuild.
func TestLateAckRecordOutlivesRetransmission(t *testing.T) {
	// The addressee is a bare transceiver with no MAC, so every attempt
	// goes unacknowledged and the frame is retransmitted.
	h := newHarness(t, 100, []geom.Point{{X: 0}})
	d := h.macs[0]
	heard, bodies := listen(t, h, 2)
	// The sender rebuilds a packet as soon as it is handed back, as a
	// node.Stack does.
	done := d.cb.OnSendDone
	d.cb.OnSendDone = func(p *pkt.Packet, to pkt.NodeID, ok bool) {
		done(p, to, ok)
		p.Body.(*pkt.Hello).Seq = 0
	}
	p := testPacket(1, 2)
	if !d.Send(p, 2) {
		t.Fatal("queue refused packet")
	}
	for !(d.inflight != nil && d.inflight.attempt > 0 && d.vtxOut == d.inflight) {
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before a retransmission went on the air")
		}
	}
	rec, seq := d.inflight, d.inflight.frm.seq
	want := frame{kind: frameData, src: 1, dst: 2, seq: seq, payload: p}

	// The first attempt's ACK lands mid-retransmission.
	d.ReceiveFrame(&frame{kind: frameAck, src: 2, dst: 1, seq: seq}, 2, true)
	if d.inflight != nil {
		t.Fatal("late ACK did not complete the frame")
	}
	if len(h.dones[0]) != 0 {
		t.Fatalf("the packet was handed back while its retransmission is on the air: %+v", h.dones[0])
	}
	next := testPacket(1, pkt.Broadcast)
	if !d.Send(next, pkt.Broadcast) {
		t.Fatal("queue refused packet")
	}
	if d.inflight == rec {
		t.Fatal("the next frame took the record whose frame is still on the air")
	}

	n := len(*heard)
	for len(*heard) == n {
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before the retransmission left the air")
		}
	}
	if got := (*heard)[n]; got != want {
		t.Fatalf("the retransmission's receivers read %+v, want the original frame %+v", got, want)
	}
	if got := (*bodies)[len(*bodies)-1]; got != 9 {
		t.Fatalf("the retransmission's receivers read hello %d, want the original 9", got)
	}
	// The radio calls TxDone right after the walk, inside the same event.
	if d.lateOut != nil || rec.frm.payload != nil {
		t.Fatal("the record was not released, its packet dropped, when its frame left the air")
	}
	if len(h.dones[0]) != 1 || !h.dones[0][0].ok || h.dones[0][0].p != p {
		t.Fatalf("completions %+v when the frame left the air, want the packet handed back acknowledged", h.dones[0])
	}
	last := testPacket(1, pkt.Broadcast)
	if !d.Send(last, pkt.Broadcast) {
		t.Fatal("queue refused packet")
	}
	for d.inflight == nil || d.inflight.frm.payload != last {
		if _, done := h.sched.RunAll(1); done {
			t.Fatal("run drained before the third frame reached the head")
		}
	}
	if d.inflight != rec {
		t.Fatal("the released record was not reused for the frame after next")
	}
	h.sched.Run(h.sched.Now() + time.Second)
	if len(h.dones[0]) != 3 {
		t.Fatalf("%d completions, want 3", len(h.dones[0]))
	}
}

// TestBackToBackAcks sends two ACKs back to back at the paper's
// timings: the second reception ends one ACK airtime after the first,
// so the second ACK fires at the instant the first leaves the air. Both
// go out, in order, each with its own (dst, seq), from the one response
// frame: the radio walks the first ACK's receivers before the second
// rewrites it, because an ACK outlasts SIFS (see DCF.resp).
func TestBackToBackAcks(t *testing.T) {
	h := newHarness(t, 100, []geom.Point{{X: 0}})
	d := h.macs[0]
	if d.ackAirtime() <= sifs {
		t.Fatalf("ACK airtime %v does not outlast SIFS %v: one response frame is not enough", d.ackAirtime(), sifs)
	}
	heard, _ := listen(t, h, 2, 3)
	t0 := time.Millisecond
	h.sched.At(t0, func() {
		d.onData(&frame{kind: frameData, src: 2, dst: 1, seq: 7, payload: testPacket(2, 1)})
	})
	h.sched.At(t0+d.ackAirtime(), func() {
		d.onData(&frame{kind: frameData, src: 3, dst: 1, seq: 9, payload: testPacket(3, 1)})
	})
	h.sched.Run(time.Second)

	want := []frame{{kind: frameAck, src: 1, dst: 2, seq: 7}, {kind: frameAck, src: 1, dst: 3, seq: 9}}
	if !slices.Equal(*heard, want) {
		t.Fatalf("ACKs heard %+v, want %+v", *heard, want)
	}
	if s := d.Stats(); s.Channel.TxByLayer[metrics.LayerMAC] != 2 || s.Delivered != 2 {
		t.Fatalf("%d ACKs sent and %d frames delivered, want 2 each", s.Channel.TxByLayer[metrics.LayerMAC], s.Delivered)
	}
	if d.resps.len() != 0 {
		t.Fatalf("%d responses still pending after both fired", d.resps.len())
	}
}
