package netrt

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

const recvGroup pkt.GroupID = 0xE0000001

var floodGossip = stack.Spec{Routing: "flood", Recovery: "gossip"}

// mallocs counts the heap objects f allocates over runs calls, after one
// warm-up call, on one P as testing.AllocsPerRun does. It returns the
// total rather than a truncated mean, so a budget of k a call is checked
// as exactly runs × k and one stray allocation cannot hide in it.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// runRelaysOut runs n's scheduler until only its gossip round is left
// pending: the relays a delivery armed (jitter at most 10 ms) fire, and
// the clock stops at the last of them, so a measured stretch of
// deliveries spans as little protocol time as it can.
func runRelaysOut(n *Node) {
	for n.sched.Pending() > 1 {
		at, _ := n.sched.NextAt()
		n.sched.Run(at)
	}
}

// warmSeqs is how many distinct packets a flood+gossip node takes
// before a new one grows none of its tables: flooding's duplicate filter
// holds 1,024 keys (and gossip's history 100), and past that a new key
// evicts the oldest.
const warmSeqs = 1024

// runToNextRound runs pn's scheduler through its next gossip round, so
// the one after it is a whole Interval (1 s) away and a counted stretch
// shorter than that holds none; it returns the rounds run so far.
func runToNextRound(t *testing.T, pn *ProtocolNode) uint64 {
	t.Helper()
	n := pn.rt
	if n.sched.Pending() != 1 {
		t.Fatalf("%d timers pending, want the gossip round alone", n.sched.Pending())
	}
	before := pn.node.RecoveryStats().Rounds
	at, _ := n.sched.NextAt()
	n.sched.Run(at)
	rounds := pn.node.RecoveryStats().Rounds
	if rounds != before+1 {
		t.Fatalf("%d gossip rounds ran, want %d", rounds, before+1)
	}
	return rounds
}

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
// the delivery callback add nothing. The new frames are counted once the
// node's tables are full (warmSeqs) and between two gossip rounds, whose
// requests are not relays.
func TestDeliverAllocsFloodGossip(t *testing.T) {
	pn := newFloodGossipNode(t, 1, NewChanTransport())
	n := pn.rt
	delivered := 0
	pn.OnDeliver(func(_ pkt.GroupID, d *pkt.Data, _ bool) { delivered += int(d.Seq) })

	const runs = 100
	frames := make([][]byte, 0, warmSeqs+runs+1)
	for seq := uint32(1); seq <= warmSeqs+runs+1; seq++ {
		frames = append(frames, groupData(2, 3, seq, 8, 64))
	}
	next := 0
	deliverNew := func() {
		n.deliver(frames[next])
		next++
		runRelaysOut(n)
	}
	for range warmSeqs {
		deliverNew()
	}
	rounds := runToNextRound(t, pn)
	out := n.Stats().FramesOut.Load()
	fresh := mallocs(runs, deliverNew)
	if fresh != runs {
		t.Errorf("%d new Data frames: %d allocs, want %d (the re-encoded frames)", runs, fresh, runs)
	}
	if r := pn.node.RecoveryStats().Rounds; r != rounds {
		t.Fatalf("%d gossip rounds ran, want %d: a round fell inside the counted frames", r, rounds)
	}
	if sent := n.Stats().FramesOut.Load() - out; delivered == 0 || sent != runs+1 {
		t.Fatalf("the frames were not accepted: delivered sum %d, %d rebroadcasts, want %d", delivered, sent, runs+1)
	}

	seen := frames[len(frames)-1]
	before := delivered
	dup := mallocs(runs, func() { n.deliver(seen) })
	if dup != 0 {
		t.Errorf("%d already-seen Data frames: %d allocs, want 0", runs, dup)
	}
	if delivered != before {
		t.Error("a duplicate frame was delivered")
	}
	t.Logf("allocs over %d frames: new %d, duplicate %d", runs, fresh, dup)
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

// TestBorrowedControlPacketIntactUntilReturn is the control-frame half
// of the ownership rule of runtime.ReceiveFunc. Every kind is decoded
// into the loop's storage for that kind, lent to the stack until its
// handler returns: a hello, a RERR, gossip requests — cached, walking,
// and one in transit that the stack forwards — and a gossip reply. The
// stack answers, forwards and ingests from the lent packet, and builds
// what it sends in the packets its link handed back; none of that may
// write the lent packet before the handler has returned.
func TestBorrowedControlPacketIntactUntilReturn(t *testing.T) {
	tr := NewChanTransport()
	const tapID, farID pkt.NodeID = 9, 7
	heard := make(chan *pkt.Frame, 64)
	for _, id := range []pkt.NodeID{tapID, farID} {
		c, err := tr.Join(id, func(raw []byte) {
			if f, err := pkt.DecodeFrame(raw); err == nil && f.Packet.Kind != pkt.KindHello {
				heard <- f
			}
		})
		if err != nil {
			t.Fatalf("Join %v: %v", id, err)
		}
		defer c.Close()
	}
	pn := newFloodGossipNode(t, 1, tr)
	n := pn.rt
	stackRecv := n.onRecv
	n.onRecv = func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
		before := pkt.Encode(p)
		stackRecv(p, from, broadcast)
		if after := pkt.Encode(p); !bytes.Equal(after, before) {
			t.Errorf("the stack wrote the lent %v packet before returning: % x, was % x", p.Kind, after, before)
		}
	}

	a := pkt.Data{Group: recvGroup, Origin: 5, Seq: 1, PayloadLen: 40}
	b := pkt.Data{Group: recvGroup, Origin: 6, Seq: 1, PayloadLen: 24}
	frame := func(from, linkDst pkt.NodeID, p *pkt.Packet) []byte {
		return pkt.EncodeFrame(&pkt.Frame{From: from, LinkDst: linkDst, Packet: p})
	}
	reqTo := func(dst pkt.NodeID, flags uint8, lost ...pkt.SeqKey) *pkt.Packet {
		return pkt.NewPacket(tapID, dst, &pkt.GossipReq{Group: recvGroup, Initiator: tapID, Flags: flags,
			Lost: lost, Expected: []pkt.Expect{{Origin: 5, NextSeq: 1}}})
	}
	// Not started: the test goroutine stands in for the loop, so the
	// frames go straight to deliver, twice each, the second over the
	// first's storage.
	for _, raw := range [][]byte{
		groupData(tapID, a.Origin, a.Seq, 1, a.PayloadLen), // into history, not relayed
		frame(tapID, pkt.Broadcast, pkt.NewPacket(tapID, pkt.Broadcast, &pkt.Hello{Seq: 1})),
		frame(farID, pkt.Broadcast, pkt.NewPacket(farID, pkt.Broadcast, &pkt.Hello{Seq: 1})),
		frame(tapID, 1, reqTo(1, pkt.GossipCached, a.Key(), b.Key())),
		frame(tapID, 1, reqTo(1, 0, a.Key())),
		frame(tapID, 1, reqTo(farID, pkt.GossipCached, b.Key())),
		frame(tapID, 1, pkt.NewPacket(tapID, 1, &pkt.GossipRep{Group: recvGroup, Responder: tapID, Msgs: []pkt.Data{b, a}})),
		frame(tapID, pkt.Broadcast, pkt.NewPacket(tapID, pkt.Broadcast, &pkt.RERR{Dests: []pkt.Unreachable{{Addr: 12, Seq: 3}}})),
	} {
		for range 2 {
			n.deliver(raw)
			n.sched.Run(n.sched.Now() + 10*time.Millisecond)
		}
	}
	// The cached request was answered from history, both times; the one
	// in transit went on to farID with its TTL spent by one.
	var replies, forwarded int
	for len(heard) > 0 {
		f := <-heard
		switch body := f.Packet.Body.(type) {
		case *pkt.GossipRep:
			if f.LinkDst != tapID || len(body.Msgs) == 0 || body.Msgs[0] != a {
				t.Errorf("reply to %v carries %+v, want A first", f.LinkDst, body.Msgs)
			}
			replies++
		case *pkt.GossipReq:
			if f.LinkDst == farID && f.Packet.Dst == farID {
				if f.Packet.TTL != pkt.DefaultTTL-1 || len(body.Lost) != 1 || body.Lost[0] != b.Key() {
					t.Errorf("forwarded request: ttl %d lost %v, want ttl %d lost [%v]", f.Packet.TTL, body.Lost, pkt.DefaultTTL-1, b.Key())
				}
				forwarded++
			}
		}
	}
	if replies < 2 || forwarded != 2 {
		t.Errorf("%d replies and %d forwarded requests heard, want at least 2 and exactly 2", replies, forwarded)
	}
}

// TestPendingRelaysSendTheirOwnCopies delivers bursts of new Data frames
// with no timer run in between, as a loop batch does: more relays are
// pending at once than a stack keeps spares for at rest. Each must go
// out as its own copy, with its own key and TTL−1 — a copy built in
// storage another pending relay still holds would send one key twice —
// and once the stack has seen a burst that deep, the next one's copies
// are built in the packets the link handed back: a burst costs its
// re-encoded frames and nothing else. The bursts are counted once the
// node's tables are full (warmSeqs) and between two gossip rounds, whose
// requests are not relays.
func TestPendingRelaysSendTheirOwnCopies(t *testing.T) {
	tr := NewChanTransport()
	const tapID pkt.NodeID = 9
	const depth, runs = 6, 100
	const warm = warmSeqs/depth + 1
	const bursts = warm + runs + 1 // the warm-up, the counted bursts and mallocs' own
	// The tap keeps the raw frames in storage it has already, with room
	// for the gossip requests of the warm-up: the count below is the
	// node's alone.
	heard := make([][]byte, 0, depth*bursts+16)
	tap, err := tr.Join(tapID, func(raw []byte) { heard = append(heard, raw) })
	if err != nil {
		t.Fatalf("tap Join: %v", err)
	}
	defer tap.Close()
	pn := newFloodGossipNode(t, 1, tr)
	n := pn.rt

	frames := make([][]byte, 0, depth*bursts)
	for seq := uint32(1); seq <= bursts; seq++ { // every origin's, so gossip sees no gap
		for i := range depth {
			frames = append(frames, groupData(tapID, pkt.NodeID(20+i), seq, uint8(3+i), 64))
		}
	}
	burst := func() {
		for _, raw := range frames[:depth] {
			n.deliver(raw)
		}
		frames = frames[depth:]
		runRelaysOut(n)
	}
	for range warm {
		burst()
	}
	rounds := runToNextRound(t, pn)
	counted := len(heard)
	if allocs := mallocs(runs, burst); allocs != depth*runs {
		t.Errorf("%d bursts of %d relays: %d allocs, want %d (the re-encoded frames)", runs, depth, allocs, depth*runs)
	}
	// Nothing but the relays went out while the bursts were counted.
	if r := pn.node.RecoveryStats().Rounds; r != rounds || len(heard)-counted != depth*(runs+1) {
		t.Fatalf("%d frames heard over %d bursts of %d, with %d gossip rounds run, want relays only and %d rounds",
			len(heard)-counted, runs+1, depth, r, rounds)
	}

	// The node's gossip rounds ran during the warm-up and between it and
	// the counted bursts; their requests are not relays.
	var relays []*pkt.Packet
	for _, raw := range heard {
		f, err := pkt.DecodeFrame(raw)
		if err != nil {
			t.Fatalf("frame heard: %v", err)
		}
		if f.Packet.Kind == pkt.KindData {
			relays = append(relays, f.Packet)
		}
	}
	if len(relays) != depth*bursts {
		t.Fatalf("%d relays heard, want %d", len(relays), depth*bursts)
	}
	for b := range bursts {
		sent := map[pkt.SeqKey]bool{}
		for _, p := range relays[b*depth : (b+1)*depth] {
			d := p.Body.(*pkt.Data)
			i := int(d.Origin) - 20
			if d.Seq != uint32(b+1) || i < 0 || i >= depth || sent[d.Key()] || p.TTL != uint8(3+i-1) {
				t.Fatalf("burst %d: relay of %v with ttl %d is not one of its pending copies, or is one twice (sent: %v)", b, d.Key(), p.TTL, sent)
			}
			sent[d.Key()] = true
		}
	}
}

// TestLiveClusterMallocsPerFrame is the bench's live-chan workload in
// small: 8 flood+gossip nodes on one channel transport, 2,000 packets
// closed loop (window 8) after a 200-packet warm-up. Each packet is 56
// frame receptions, all but 7 of them duplicates; the process-wide
// malloc count per received frame — the publishing goroutine's share
// included — must stay under 0.164 (one allocation per reception alone
// would make it 1). What is left is one encoded frame per frame sent, 8
// per packet: 8/56 ≈ 0.143. The run measured 0.28–0.31 while publishes
// and control frames allocated and relays pending past a node's two
// spares were fresh copies; with those gone it measures 0.144–0.149
// (0.148–0.149 under the race detector; 2-core x86 host): the budget is
// the top of that plus 10 %. At the helper's ten protocol seconds per
// second the hello and gossip rounds that tick by during the run stay a
// rounding error.
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
	if perFrame > 0.164 {
		t.Errorf("%.3f mallocs per received frame, budget 0.164", perFrame)
	}
}
