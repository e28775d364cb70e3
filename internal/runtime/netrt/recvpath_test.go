package netrt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

const recvGroup pkt.GroupID = 0xE0000001

var floodGossip = stack.Spec{Routing: "flood", Recovery: "gossip"}

// groupData encodes a broadcast Data frame from node `from`, originated
// by `origin`, for recvGroup.
func groupData(from, origin pkt.NodeID, seq uint32, ttl uint8, payload uint16) []byte {
	p := pkt.NewPacket(origin, pkt.Broadcast, &pkt.Data{Group: recvGroup, Origin: origin, Seq: seq, PayloadLen: payload})
	p.TTL = ttl
	return pkt.EncodeFrame(&pkt.Frame{From: from, LinkDst: pkt.Broadcast, Packet: p})
}

// TestSendRefusesOversizeBody pins the 16-bit body length: a body the
// header cannot describe is refused at Send. Sent, it would carry a
// wrapped length that every receiver counts Malformed.
func TestSendRefusesOversizeBody(t *testing.T) {
	tr := NewChanTransport()
	a, err := NewNode(NodeConfig{ID: 1}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 2}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer b.Close()
	b.Bind(func(*pkt.Packet, pkt.NodeID, bool) {}, nil)
	b.Start()

	// The largest payload a Data body fits in the wire length with.
	maxPayload := uint16(pkt.MaxBodySize - (&pkt.Data{}).WireSize())
	big := pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Origin: 1, Seq: 1, PayloadLen: maxPayload + 1})
	if a.Send(big, pkt.Broadcast) {
		t.Error("Send accepted a body the 16-bit wire length cannot carry")
	}
	if errs, out := a.Stats().SendErrors.Load(), a.Stats().FramesOut.Load(); errs != 1 || out != 0 {
		t.Errorf("after the refusal SendErrors = %d, FramesOut = %d, want 1 and 0", errs, out)
	}
	// The largest body that fits still goes out and decodes.
	fits := pkt.NewPacket(1, pkt.Broadcast, &pkt.Data{Origin: 1, Seq: 2, PayloadLen: maxPayload})
	if !a.Send(fits, pkt.Broadcast) {
		t.Fatalf("Send refused a %d-byte body", fits.Body.WireSize())
	}
	// The channel transport is in order: once b has the second packet,
	// anything sent for the first has reached it too.
	waitFor(t, 5*time.Second, func() bool { return b.Stats().FramesIn.Load() == 1 }, "the fitting frame at b")
	if bad := b.Stats().Malformed.Load(); bad != 0 {
		t.Errorf("peer counted %d malformed frames, want 0: the oversize packet was sent", bad)
	}
}

// newFloodGossipNode assembles one flood+gossip member of recvGroup on
// tr, at ten protocol seconds per second. It is not started: Join runs
// on the caller's goroutine, as engine activation does in
// ProtocolNode.Start.
func newFloodGossipNode(t *testing.T, id pkt.NodeID, tr Transport) *ProtocolNode {
	t.Helper()
	pn, err := NewProtocolNode(ProtocolConfig{
		Node: NodeConfig{ID: id, TimeScale: 10}, Stack: floodGossip, Seed: 42,
	}, tr)
	if err != nil {
		t.Fatalf("NewProtocolNode: %v", err)
	}
	t.Cleanup(func() { pn.Close() })
	pn.node.Join(recvGroup)
	return pn
}

// TestDeliverAllocsFloodGossip is the allocation budget of one frame's
// trip up a flood+gossip stack, counted on the loop's own deliver path
// (the node is not started: the test goroutine stands in for the loop).
// A Data frame the router has seen costs nothing. A new one costs the
// re-encoded frame when the rebroadcast jitter runs out, and nothing
// else: flooding's copy is built in the packet the last rebroadcast
// handed back, its relay record is reused, and the gossip ingest and
// the delivery callback add nothing.
func TestDeliverAllocsFloodGossip(t *testing.T) {
	pn := newFloodGossipNode(t, 1, NewChanTransport())
	n := pn.rt
	delivered := 0
	pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) { delivered += int(d.Seq) })

	const runs = 1000
	frames := make([][]byte, 0, runs+1)
	for seq := uint32(1); seq <= runs+1; seq++ {
		frames = append(frames, groupData(2, 3, seq, 8, 64))
	}
	next := 0
	fresh := testing.AllocsPerRun(runs, func() {
		n.deliver(frames[next])
		next++
		// Let the rebroadcast jitter (at most 10 ms) run out.
		n.sched.Run(n.sched.Now() + 10*time.Millisecond)
	})
	if fresh != 1 {
		t.Errorf("a new Data frame: %v allocs, want 1 (the re-encoded frame)", fresh)
	}
	if delivered == 0 || n.Stats().FramesOut.Load() < runs {
		t.Fatalf("the frames were not accepted: delivered sum %d, %d rebroadcasts", delivered, n.Stats().FramesOut.Load())
	}

	seen := frames[len(frames)-1]
	before := delivered
	dup := testing.AllocsPerRun(runs, func() { n.deliver(seen) })
	if dup != 0 {
		t.Errorf("an already-seen Data frame: %v allocs, want 0", dup)
	}
	if delivered != before {
		t.Error("a duplicate frame was delivered")
	}
	t.Logf("allocs per frame: new %v, duplicate %v", fresh, dup)
}

// TestBorrowedDataPacketSurvivesNextFrame checks the ownership rule of
// runtime.ReceiveFunc where it is sharpest. The loop decodes every Data
// frame into the same storage, and flooding holds each accepted packet
// past its handler's return, until the rebroadcast jitter runs out. A
// and B sit in the inbox together, so B is decoded over A before either
// rebroadcast fires: both must still go out with their own key and
// TTL−1, the application must have seen A then B, and the gossip
// history must serve both — all of which hold only because every engine
// clones or copies what it keeps.
func TestBorrowedDataPacketSurvivesNextFrame(t *testing.T) {
	tr := NewChanTransport()
	const tapID pkt.NodeID = 9
	heard := make(chan *pkt.Frame, 64)
	tap, err := tr.Join(tapID, func(raw []byte) {
		if f, err := pkt.DecodeFrame(raw); err == nil {
			heard <- f
		}
	})
	if err != nil {
		t.Fatalf("tap Join: %v", err)
	}
	defer tap.Close()
	// await returns the body of the next frame from the node of the
	// wanted kind, skipping its hellos and gossip walks.
	await := func(kind pkt.Kind) *pkt.Packet {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case f := <-heard:
				if f.Packet.Kind == kind {
					return f.Packet
				}
			case <-timeout:
				t.Fatalf("no %v frame from the node", kind)
			}
		}
	}

	pn := newFloodGossipNode(t, 1, tr)
	var got []pkt.Data
	pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) { got = append(got, *d) })

	a := pkt.Data{Group: recvGroup, Origin: 5, Seq: 1, PayloadLen: 40}
	b := pkt.Data{Group: recvGroup, Origin: 6, Seq: 1, PayloadLen: 72}
	const ttlA, ttlB = 7, 4
	// Both are queued before the loop runs, so one batch delivers them
	// back to back with no timer in between.
	for _, raw := range [][]byte{
		groupData(tapID, a.Origin, a.Seq, ttlA, a.PayloadLen),
		groupData(tapID, b.Origin, b.Seq, ttlB, b.PayloadLen),
	} {
		if err := tap.Send(raw, pkt.Broadcast); err != nil {
			t.Fatalf("tap Send: %v", err)
		}
	}
	pn.Start()

	wantTTL := map[pkt.Data]uint8{a: ttlA - 1, b: ttlB - 1}
	for range 2 {
		p := await(pkt.KindData)
		d := *p.Body.(*pkt.Data)
		ttl, ok := wantTTL[d]
		if !ok {
			t.Fatalf("rebroadcast carries %+v: not A, not B, or one of them twice", d)
		}
		if p.TTL != ttl || p.Src != d.Origin {
			t.Errorf("rebroadcast of %v: ttl %d src %v, want ttl %d src %v", d.Key(), p.TTL, p.Src, ttl, d.Origin)
		}
		delete(wantTTL, d)
	}
	if err := pn.rt.Do(func() {
		if len(got) != 2 || got[0] != a || got[1] != b {
			t.Errorf("application saw %+v, want A then B", got)
		}
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}

	// A hello gives the node its one-hop route to the tap; the cached
	// gossip request is then always accepted and answered from history.
	hello := pkt.NewPacket(tapID, pkt.Broadcast, &pkt.Hello{Seq: 1})
	req := pkt.NewPacket(tapID, 1, &pkt.GossipReq{Group: recvGroup, Initiator: tapID,
		Flags: pkt.GossipCached, Lost: []pkt.SeqKey{a.Key(), b.Key()}})
	for _, f := range []*pkt.Frame{
		{From: tapID, LinkDst: pkt.Broadcast, Packet: hello},
		{From: tapID, LinkDst: 1, Packet: req},
	} {
		if err := tap.Send(pkt.EncodeFrame(f), f.LinkDst); err != nil {
			t.Fatalf("tap Send: %v", err)
		}
	}
	rep := await(pkt.KindGossipRep).Body.(*pkt.GossipRep)
	if len(rep.Msgs) != 2 || rep.Msgs[0] != a || rep.Msgs[1] != b {
		t.Errorf("gossip reply carries %+v, want A and B from history", rep.Msgs)
	}
}

// TestLiveClusterMallocsPerFrame is the bench's live-chan workload in
// small: 8 flood+gossip nodes on one channel transport, 2,000 packets
// closed loop (window 8) after a 200-packet warm-up. Each packet is 56
// frame receptions, all but 7 of them duplicates; the process-wide
// malloc count per received frame — the publishing goroutine's share
// included — must stay under 0.34 (one allocation per reception alone
// would make it 1). The run measured 0.38 (0.39 under the race detector)
// while every packet a node sent was a fresh allocation; built in the
// packets the link hands back, it measures 0.28–0.31 (2-core x86 host;
// how many relays are pending at once, and so outgrow their node's
// spares, follows the goroutines' timing): the budget is the top of
// that plus 10 %. At the helper's ten protocol seconds
// per second the hello and gossip rounds that tick by during the run
// stay a rounding error.
func TestLiveClusterMallocsPerFrame(t *testing.T) {
	const nodes, warmup, packets, window = 8, 200, 2000, 8
	tr := NewChanTransport()
	got := make([]atomic.Int32, warmup+packets) // receivers that have packet i
	wake := make(chan struct{}, 1)
	cluster := make([]*ProtocolNode, nodes)
	for i := range cluster {
		pn := newFloodGossipNode(t, pkt.NodeID(i+1), tr)
		if i > 0 {
			pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) {
				if got[d.Seq-1].Add(1) == nodes-1 {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			})
		}
		cluster[i] = pn
	}
	for _, pn := range cluster {
		pn.Start()
	}
	framesIn := func() (sum uint64) {
		for _, pn := range cluster {
			sum += pn.rt.Stats().FramesIn.Load()
		}
		return sum
	}
	deadline := time.After(60 * time.Second)
	await := func(i int) {
		for got[i].Load() < nodes-1 {
			select {
			case <-wake:
			case <-deadline:
				t.Fatalf("packet %d reached %d of %d receivers", i, got[i].Load(), nodes-1)
			}
		}
	}
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			if i-window >= from {
				await(i - window)
			}
			if _, err := cluster[0].Publish(recvGroup); err != nil {
				t.Fatalf("Publish %d: %v", i, err)
			}
		}
		for i := max(to-window, from); i < to; i++ {
			await(i)
		}
	}
	publish(0, warmup)
	var m0, m1 runtime.MemStats
	f0 := framesIn()
	runtime.ReadMemStats(&m0)
	publish(warmup, warmup+packets)
	runtime.ReadMemStats(&m1)
	frames := framesIn() - f0
	// 7 first copies and 49 duplicates per packet; the last duplicates
	// may still be in flight.
	if frames < packets*(nodes-1)*(nodes-1) {
		t.Fatalf("%d frames received over %d packets, want at least %d", frames, packets, packets*(nodes-1)*(nodes-1))
	}
	perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(frames)
	t.Logf("%d mallocs over %d received frames: %.3f per frame", m1.Mallocs-m0.Mallocs, frames, perFrame)
	if perFrame > 0.34 {
		t.Errorf("%.3f mallocs per received frame, budget 0.34", perFrame)
	}
}
