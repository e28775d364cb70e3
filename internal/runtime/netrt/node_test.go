package netrt

import (
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// waitFor polls cond until it holds or the deadline passes. Live-node
// tests are wall-clock driven, so assertions poll rather than sleep a
// fixed (and therefore flaky) amount.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNodeTimersFire(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, TimeScale: 1000}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	var fired atomic.Int32
	var order []int
	// Arm before Start: the clock starts at zero when the loop does.
	n.After(2*time.Second, func() { order = append(order, 2); fired.Add(1) })
	n.After(1*time.Second, func() { order = append(order, 1); fired.Add(1) })
	cancelled := n.After(1500*time.Millisecond, func() { t.Error("cancelled timer fired") })
	cancelled.Cancel()

	n.Start()
	// 2 sim-seconds at scale 1000 is 2 ms wall time.
	waitFor(t, 5*time.Second, func() bool { return fired.Load() == 2 }, "both timers")

	if err := n.Do(func() {
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Errorf("timers fired in order %v, want [1 2]", order)
		}
		if now := n.Now(); now < 2*time.Second {
			t.Errorf("Now() = %v after both timers, want >= 2s", now)
		}
		// Timers armed from the loop fire too.
		n.After(10*time.Millisecond, func() { fired.Add(1) })
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return fired.Load() == 3 }, "loop-armed timer")
}

func TestNodeDoAfterClose(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.Start()
	if err := n.Do(func() {}); err != nil {
		t.Fatalf("Do on live node: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := n.Do(func() {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close err = %v, want ErrClosed", err)
	}
}

func TestNodeDeliveryFiltering(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, TimeScale: 100}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	type rx struct {
		from      pkt.NodeID
		broadcast bool
	}
	var got atomic.Pointer[[]rx]
	got.Store(&[]rx{})
	n.Bind(func(p *pkt.Packet, from pkt.NodeID, broadcast bool) {
		next := append(*got.Load(), rx{from, broadcast})
		got.Store(&next)
	}, nil)
	n.Start()

	// A raw peer on the same medium injects frames directly.
	peer, err := tr.Join(2, func([]byte) {})
	if err != nil {
		t.Fatalf("peer Join: %v", err)
	}
	data := &pkt.Packet{Kind: pkt.KindData, Src: 2, Dst: pkt.Broadcast, TTL: 4,
		Body: &pkt.Data{Origin: 2, Seq: 7}}
	frame := func(from, linkDst pkt.NodeID) []byte {
		return pkt.EncodeFrame(&pkt.Frame{From: from, LinkDst: linkDst, Packet: data})
	}

	// A push-mode gossip request, whose pushed data the request layout
	// no longer has: a count of 1 and one Data trail its expectations.
	push, err := hex.DecodeString("41470100000002ffffffff" +
		"090000000300000009110073e0000001000000050302020000000200000011000000020000001301000000020000001901" +
		"e0000001000000020000001e0040" + strings.Repeat("00", 64))
	if err != nil {
		t.Fatal(err)
	}

	peer.Send([]byte{0xde, 0xad}, 1)      // malformed: dropped, counted
	peer.Send(push, 1)                    // malformed: dropped, counted
	peer.Send(frame(2, 3), 1)             // unicast to node 3: filtered
	peer.Send(frame(1, pkt.Broadcast), 1) // echo of "our own" frame: dropped
	peer.Send(frame(2, pkt.Broadcast), 1) // delivered as broadcast
	peer.Send(frame(2, 1), 1)             // delivered as unicast

	waitFor(t, 5*time.Second, func() bool { return len(*got.Load()) == 2 }, "two deliveries")
	rxs := *got.Load()
	if rxs[0].from != 2 || !rxs[0].broadcast {
		t.Errorf("first delivery = %+v, want broadcast from 2", rxs[0])
	}
	if rxs[1].from != 2 || rxs[1].broadcast {
		t.Errorf("second delivery = %+v, want unicast from 2", rxs[1])
	}
	if m := n.Stats().Malformed.Load(); m != 2 {
		t.Errorf("Malformed = %d, want 2", m)
	}
	if f := n.Stats().Filtered.Load(); f != 1 {
		t.Errorf("Filtered = %d, want 1", f)
	}
	if in := n.Stats().FramesIn.Load(); in != 2 {
		t.Errorf("FramesIn = %d, want 2", in)
	}
}

func TestNodeSendEncodesFrames(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 7}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	frames := make(chan []byte, 1)
	if _, err := tr.Join(9, func(f []byte) { frames <- f }); err != nil {
		t.Fatalf("listener Join: %v", err)
	}

	p := &pkt.Packet{Kind: pkt.KindData, Src: 7, Dst: pkt.Broadcast, TTL: 8,
		Body: &pkt.Data{Origin: 7, Seq: 3, PayloadLen: 64}}
	if !n.Send(p, pkt.Broadcast) {
		t.Fatal("Send returned false")
	}
	select {
	case raw := <-frames:
		f, err := pkt.DecodeFrame(raw)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if f.From != 7 || f.LinkDst != pkt.Broadcast {
			t.Errorf("frame addressing = from %v to %v, want from 7 broadcast", f.From, f.LinkDst)
		}
		if d, ok := f.Packet.Body.(*pkt.Data); !ok || d.Seq != 3 {
			t.Errorf("frame payload = %#v, want Data seq 3", f.Packet.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("frame never arrived")
	}
	if out := n.Stats().FramesOut.Load(); out != 1 {
		t.Errorf("FramesOut = %d, want 1", out)
	}
}

// TestSentPacketRebuiltLeavesFrameBytes: Send hands a packet back to
// the stack as soon as its frame is encoded, and the stack builds the
// next packet of the kind in it. The frame already with the transport —
// which the channel medium shares with every receiver — keeps the first
// packet's bytes.
func TestSentPacketRebuiltLeavesFrameBytes(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 7}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	var frames [][]byte
	if _, err := tr.Join(9, func(f []byte) { frames = append(frames, f) }); err != nil {
		t.Fatalf("listener Join: %v", err)
	}
	st := node.NewOnRuntime(n)

	first := &pkt.GossipRep{Group: 1, Responder: 7, WalkHops: 2,
		Msgs: []pkt.Data{{Group: 1, Origin: 3, Seq: 1, PayloadLen: 8}, {Group: 1, Origin: 3, Seq: 2, PayloadLen: 8}}}
	p := st.NewPacket(pkt.Broadcast, first)
	st.SendBroadcast(p)
	q := st.NewPacket(pkt.Broadcast, &pkt.GossipRep{Group: 5, Responder: 7,
		Msgs: []pkt.Data{{Group: 5, Origin: 4, Seq: 9, PayloadLen: 1}}})
	if q != p {
		t.Fatal("the sent packet was not handed back for the next build")
	}
	st.SendBroadcast(q)

	if len(frames) != 2 {
		t.Fatalf("%d frames on the transport, want 2", len(frames))
	}
	f, err := pkt.DecodeFrame(frames[0])
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(f.Packet.Body, first) {
		t.Fatalf("first frame now decodes to %+v, want the first packet %+v", f.Packet.Body, first)
	}
}

// TestNodeClockInterface pins that both runtimes expose the same timer
// semantics: a netrt Node is a runtime.Clock backed by the same pooled
// sim.Timer values the simulator hands out.
func TestNodeClockTimerHandles(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, TimeScale: 1000}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	var tm sim.Timer
	if !tm.IsZero() {
		t.Error("zero Timer should report IsZero")
	}
	tm = n.After(time.Second, func() {})
	if tm.IsZero() {
		t.Error("armed timer reports IsZero")
	}
	tm.Cancel()
	if !tm.Done() {
		t.Error("cancelled timer should be Done")
	}
}

// TestNodeCloseIdempotent closes a node more than once — never started,
// started, and from two goroutines at once: every call returns, none
// panics.
func TestNodeCloseIdempotent(t *testing.T) {
	for _, start := range []bool{false, true} {
		n, err := NewNode(NodeConfig{ID: 1}, NewChanTransport())
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		if start {
			n.Start()
		}
		for i := 0; i < 2; i++ {
			if err := n.Close(); err != nil {
				t.Errorf("started=%v: Close #%d: %v", start, i+1, err)
			}
		}
	}

	n, err := NewNode(NodeConfig{ID: 1}, NewChanTransport())
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.Start()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
			// Close returning means the loop has exited.
			select {
			case <-n.done:
			default:
				t.Error("Close returned before the loop exited")
			}
		}()
	}
	wg.Wait()
}

// dataFrame encodes a Data frame from node `from` carrying seq.
func dataFrame(from, linkDst pkt.NodeID, seq uint32) []byte {
	return pkt.EncodeFrame(&pkt.Frame{From: from, LinkDst: linkDst,
		Packet: pkt.NewPacket(from, linkDst, &pkt.Data{Origin: from, Seq: seq, PayloadLen: 16})})
}

// TestNodeInboxOverflow fills a 4-frame inbox with 100 frames before the
// loop runs: the first four are delivered, the other 96 counted as drops.
func TestNodeInboxOverflow(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, InboxSize: 4}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	if got := n.InboxCap(); got != 4 {
		t.Fatalf("InboxCap = %d, want 4", got)
	}
	var seqs []uint32 // loop-owned
	n.Bind(func(p *pkt.Packet, _ pkt.NodeID, _ bool) { seqs = append(seqs, p.Body.(*pkt.Data).Seq) }, nil)
	peer, err := tr.Join(2, func([]byte) {})
	if err != nil {
		t.Fatalf("peer Join: %v", err)
	}
	for seq := uint32(1); seq <= 100; seq++ {
		if err := peer.Send(dataFrame(2, 1, seq), 1); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if drops := n.Stats().InboxDrops.Load(); drops != 96 {
		t.Errorf("InboxDrops = %d, want 96", drops)
	}
	n.Start()
	waitFor(t, 5*time.Second, func() bool { return n.Stats().FramesIn.Load() >= 4 }, "four deliveries")
	if err := n.Do(func() {
		if len(seqs) != 4 || seqs[0] != 1 || seqs[3] != 4 {
			t.Errorf("delivered seqs %v, want [1 2 3 4]", seqs)
		}
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if in := n.Stats().FramesIn.Load(); in != 4 {
		t.Errorf("FramesIn = %d, want 4", in)
	}
}

// TestNodeInboxFIFO sends more frames than several loop batches hold,
// part before Start and part while the loop drains: one sender's frames
// reach the network layer in send order.
func TestNodeInboxFIFO(t *testing.T) {
	const total = 20 * loopBatch
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, InboxSize: total}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	var next uint32 = 1 // loop-owned
	var misordered atomic.Int32
	n.Bind(func(p *pkt.Packet, _ pkt.NodeID, _ bool) {
		if seq := p.Body.(*pkt.Data).Seq; seq != next {
			misordered.Add(1)
		}
		next++
	}, nil)
	peer, err := tr.Join(2, func([]byte) {})
	if err != nil {
		t.Fatalf("peer Join: %v", err)
	}
	send := func(from, to uint32) {
		for seq := from; seq <= to; seq++ {
			if err := peer.Send(dataFrame(2, pkt.Broadcast, seq), pkt.Broadcast); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	send(1, total/2)
	n.Start()
	send(total/2+1, total)
	waitFor(t, 10*time.Second, func() bool { return n.Stats().FramesIn.Load() == total }, "every frame")
	if m := misordered.Load(); m != 0 {
		t.Errorf("%d of %d frames arrived out of order", m, total)
	}
	if drops := n.Stats().InboxDrops.Load(); drops != 0 {
		t.Errorf("InboxDrops = %d, want 0", drops)
	}
}

// TestNodeLivenessUnderFlood keeps the inbox non-empty from another
// goroutine for the whole test: posted calls, timers and Close must
// still get their turn between batches.
func TestNodeLivenessUnderFlood(t *testing.T) {
	tr := NewChanTransport()
	n, err := NewNode(NodeConfig{ID: 1, TimeScale: 100}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.Bind(func(*pkt.Packet, pkt.NodeID, bool) {}, nil)
	peer, err := tr.Join(2, func([]byte) {})
	if err != nil {
		t.Fatalf("peer Join: %v", err)
	}
	wire := dataFrame(2, 1, 1)
	for i := 0; i < n.InboxCap(); i++ {
		peer.Send(wire, 1)
	}
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
				peer.Send(wire, 1) // overflow is dropped and counted: the inbox stays full
			}
		}
	}()
	n.Start()

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s starved by a saturated inbox", what)
		}
	}
	var fired atomic.Bool
	for i := 0; i < 50; i++ {
		within("Do", func() {
			if err := n.Do(func() {
				if i == 0 {
					n.After(10*time.Millisecond, func() { fired.Store(true) })
				}
			}); err != nil {
				t.Errorf("Do: %v", err)
			}
		})
	}
	waitFor(t, 10*time.Second, fired.Load, "a timer armed under flood")
	before := n.Stats().FramesIn.Load()
	waitFor(t, 10*time.Second, func() bool { return n.Stats().FramesIn.Load() > before }, "frames still flowing")
	within("Close", func() {
		if err := n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	close(stop)
	<-flooded
}

// TestNodeTimerWakesOncePerDeadline pins the wall-delay rounding: a
// delay never converts to less wall time than it spans, so the wake-up
// armed for a deadline finds it due, and a run of timers costs one loop
// wake-up each instead of a spin of zero-delay re-arms.
func TestNodeTimerWakesOncePerDeadline(t *testing.T) {
	n, err := NewNode(NodeConfig{ID: 1, TimeScale: 100}, NewChanTransport())
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	for _, d := range []sim.Time{1, 99, 100, 101, 150, 12345, time.Second + 1} {
		if w := n.wallDelay(d); sim.Time(float64(w)*n.scale) < d || sim.Time(float64(w-1)*n.scale) >= d {
			t.Errorf("wallDelay(%d) = %d: not the least wall time covering the delay", d, w)
		}
	}

	const timers = 10
	var fired atomic.Int32
	n.Start()
	if err := n.Do(func() {
		for i := 1; i <= timers; i++ {
			// 100 ms apart on the node's clock: 1 ms of wall time.
			n.After(sim.Time(i)*100*time.Millisecond+sim.Time(i), func() { fired.Add(1) })
		}
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool { return fired.Load() == timers }, "every timer")
	var wakeups uint64
	if err := n.Do(func() { wakeups = n.wakeups }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	// At most one wake-up per timer and one per posted call.
	if wakeups < 2 || wakeups > timers+2 {
		t.Errorf("%d loop wake-ups for %d timers, want at most %d", wakeups, timers, timers+2)
	}
}

// TestNodeDeliverAllocs pins the per-frame cost of the receive path
// below the stack: nothing, every packet is decoded into the node's
// scratch — a control frame's lists into the capacity the last frame of
// its kind left. (TestDeliverAllocsFloodGossip counts what a stack
// adds.)
func TestNodeDeliverAllocs(t *testing.T) {
	n, err := NewNode(NodeConfig{ID: 1}, NewChanTransport())
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	n.Bind(func(*pkt.Packet, pkt.NodeID, bool) {}, nil)
	d := pkt.Data{Group: 1, Origin: 3, Seq: 9, PayloadLen: 64}
	bodies := []pkt.Body{
		&pkt.Data{Origin: 2, Seq: 1, PayloadLen: 16},
		&pkt.Hello{Seq: 4},
		&pkt.GossipReq{Group: 1, Initiator: 2, Lost: []pkt.SeqKey{d.Key(), {Origin: 4, Seq: 2}},
			Expected: []pkt.Expect{{Origin: 3, NextSeq: 10}}},
		&pkt.GossipRep{Group: 1, Responder: 2, Msgs: []pkt.Data{d, d, d}},
	}
	for _, body := range bodies {
		wire := pkt.EncodeFrame(&pkt.Frame{From: 2, LinkDst: pkt.Broadcast, Packet: pkt.NewPacket(2, pkt.Broadcast, body)})
		// Not started: the test goroutine stands in for the loop.
		in := n.Stats().FramesIn.Load()
		const runs = 1000
		if allocs := mallocs(runs, func() { n.deliver(wire) }); allocs != 0 {
			t.Errorf("%d delivers of a %v frame: %d allocs, want 0", runs, body.Kind(), allocs)
		}
		if n.Stats().FramesIn.Load() == in {
			t.Errorf("deliver handed no %v frame up the stack", body.Kind())
		}
	}
}

// TestDoAndPublishAllocs pins the cost of calling into the loop: Do with
// a closure bound once allocates nothing, and neither does Publish's
// call path — a publish the router refuses costs nothing, and one it
// sends costs the one frame it encodes, which the transport keeps. The
// loop runs but the engines are not started, so no timer is armed and
// no gossip round falls among the counted calls; the counted publishes
// follow warmSeqs, once the node's tables are full.
func TestDoAndPublishAllocs(t *testing.T) {
	pn := newFloodGossipNode(t, 1, NewChanTransport())
	n := pn.rt
	n.Start()
	const runs = 1000
	calls := 0
	fn := func() { calls++ }
	if allocs := mallocs(runs, func() {
		if err := n.Do(fn); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("%d Dos of a bound closure: %d allocs, want 0", runs, allocs)
	}
	if allocs := mallocs(runs, func() {
		if _, err := pn.Publish(recvGroup + 1); err == nil {
			t.Fatal("Publish to a group the node is not in succeeded")
		}
	}); allocs != 0 {
		t.Errorf("%d refused Publishes: %d allocs, want 0", runs, allocs)
	}
	var last pkt.SeqKey
	publish := func() {
		key, err := pn.Publish(recvGroup)
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		last = key
	}
	for range warmSeqs {
		publish()
	}
	out := n.Stats().FramesOut.Load()
	if allocs := mallocs(runs, publish); allocs != runs {
		t.Errorf("%d Publishes: %d allocs, want %d (the encoded frames)", runs, allocs, runs)
	}
	if sent := n.Stats().FramesOut.Load() - out; sent != runs+1 || last.Seq != warmSeqs+runs+1 {
		t.Errorf("%d frames sent, last key %v: the publishes did not go out", sent, last)
	}
	if err := n.Do(func() {
		if calls != runs+1 {
			t.Errorf("%d calls ran, want %d", calls, runs+1)
		}
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
}

// TestDoRacesClose runs Do from many goroutines while Close runs. Do
// shares one call record per node, so this is where a token could go to
// the wrong caller: every call must return nil having run, or ErrClosed
// not having run, none may hang, and no token may be left behind.
func TestDoRacesClose(t *testing.T) {
	const callers, rounds = 8, 50
	for round := 0; round < rounds; round++ {
		n, err := NewNode(NodeConfig{ID: 1}, NewChanTransport())
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		n.Start()
		var served atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					var ran atomic.Bool
					err := n.Do(func() { ran.Store(true) })
					switch {
					case err == nil && ran.Load():
						served.Add(1)
					case err == nil:
						t.Error("Do returned nil before its call ran: it took another call's token")
						return
					case !errors.Is(err, ErrClosed):
						t.Errorf("Do: %v, want nil or ErrClosed", err)
						return
					case ran.Load():
						t.Error("Do returned ErrClosed for a call that ran")
						return
					default:
						return
					}
				}
			}()
		}
		// Close mid-stream, after every caller has had a turn or so.
		for served.Load() < callers {
			runtime.Gosched()
		}
		if err := n.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("a Do call hung across Close")
		}
		if len(n.called) != 0 {
			t.Fatal("a call token was left for the next caller")
		}
		if t.Failed() {
			return
		}
	}
}

// TestNodeSaturatedTimerSleeps arms a timer at the end of the node's
// time. At any time scale its wall delay is past what a Duration holds;
// the conversion must saturate, not wrap negative — a negative wake-up
// fires at once, and the loop would spin on it. While the loop waits
// for nothing but that timer it wakes only for the calls it is sent.
func TestNodeSaturatedTimerSleeps(t *testing.T) {
	for _, scale := range []float64{0.5, 1, 2} {
		n, err := NewNode(NodeConfig{ID: 1, TimeScale: scale}, NewChanTransport())
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		if w := n.wallDelay(math.MaxInt64); w <= 0 || float64(w) < float64(math.MaxInt64)/scale/2 {
			t.Errorf("scale %v: wallDelay(MaxInt64) = %v, want it saturated, not wrapped", scale, w)
		}
		n.After(math.MaxInt64, func() { t.Errorf("scale %v: the end-of-time timer fired", scale) })
		n.Start()
		time.Sleep(200 * time.Millisecond)
		var wakeups uint64
		if err := n.Do(func() { wakeups = n.wakeups }); err != nil {
			t.Fatalf("Do: %v", err)
		}
		// The Do call is one wake-up; allow a few spurious ones.
		if wakeups > 5 {
			t.Errorf("scale %v: %d loop wake-ups in 200 ms with one far timer armed, want at most 5", scale, wakeups)
		}
		n.Close()
	}
}
