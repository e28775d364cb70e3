package netrt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	peer.Send([]byte{0xde, 0xad}, 1)      // malformed: dropped, counted
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
	if m := n.Stats().Malformed.Load(); m != 1 {
		t.Errorf("Malformed = %d, want 1", m)
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
// below the stack: nothing, a Data packet is decoded into the node's
// scratch. (TestDeliverAllocsFloodGossip counts what a stack adds.)
func TestNodeDeliverAllocs(t *testing.T) {
	n, err := NewNode(NodeConfig{ID: 1}, NewChanTransport())
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	n.Bind(func(*pkt.Packet, pkt.NodeID, bool) {}, nil)
	wire := dataFrame(2, pkt.Broadcast, 1)
	// Not started: the test goroutine stands in for the loop.
	if allocs := testing.AllocsPerRun(1000, func() { n.deliver(wire) }); allocs != 0 {
		t.Errorf("deliver of a Data frame: %v allocs, want 0", allocs)
	}
	if in := n.Stats().FramesIn.Load(); in == 0 {
		t.Error("deliver handed nothing up the stack")
	}
}
