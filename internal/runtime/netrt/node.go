// Package netrt implements the runtime boundary over live transports:
// the same protocol engines that run inside the discrete-event
// simulator run here as real-time nodes — wall-clock timers, real UDP
// sockets (or an in-process channel medium for hermetic tests), one
// goroutine event loop per node.
//
// The design deliberately reuses the simulation kernel's timer wheel:
// each Node owns a private sim.Scheduler and advances it to "scaled
// wall time since boot" whenever a timer is due or a frame arrives.
// Engine code therefore executes exactly as it does under the
// simulator — single-threaded per node, timers as pooled value handles
// — and the only new machinery is the loop that maps wall time onto
// the scheduler clock and frames onto the receive path.
package netrt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"anongossip/internal/pkt"
	rt "anongossip/internal/runtime"
	"anongossip/internal/sim"
)

// NodeConfig configures one live node.
type NodeConfig struct {
	// ID is the node's address on the transport.
	ID pkt.NodeID
	// TimeScale maps wall time onto the node's clock: sim-seconds per
	// wall-second. 1 (and 0, the zero value) runs protocol timers in
	// real time; tests compress multi-second protocol cycles (hello
	// beacons, gossip rounds) with scales of 10–100.
	TimeScale float64
	// InboxSize bounds frames queued between the transport and the
	// event loop; excess frames are dropped and counted, like any
	// overrun link. 0 means DefaultInboxSize.
	InboxSize int
}

// DefaultInboxSize is the frame queue bound when NodeConfig leaves it 0.
const DefaultInboxSize = 4096

// Stats counts link-runtime activity at one node. All fields are
// atomics: the transport goroutine and the event loop update them
// concurrently and anyone may read a consistent-enough snapshot.
type Stats struct {
	// FramesIn / FramesOut count frames delivered up the stack and
	// accepted for transmission.
	FramesIn, FramesOut atomic.Uint64
	// BytesIn / BytesOut count the wire bytes of those frames.
	BytesIn, BytesOut atomic.Uint64
	// Malformed counts inbound datagrams DecodeFrame rejected.
	Malformed atomic.Uint64
	// Filtered counts well-formed frames link-addressed to some other
	// node (a broadcast-medium transport delivers everything; the
	// runtime filters like a MAC would).
	Filtered atomic.Uint64
	// SendErrors counts frames the transport or Send itself refused.
	SendErrors atomic.Uint64
	// InboxDrops counts frames dropped because the event loop's inbox
	// was full.
	InboxDrops atomic.Uint64
}

// Node is one live node: a runtime.Runtime whose clock is scaled wall
// time and whose link is a Transport. All engine code — timer
// callbacks, receive handlers, closures posted with Do — executes on
// the node's single event-loop goroutine, so the engines need no
// locking, exactly as under the simulator.
type Node struct {
	id    pkt.NodeID
	scale float64
	sched *sim.Scheduler
	conn  Conn

	// The inbox is a bounded slice the transport sinks append to and
	// the event loop takes whole, one swap per wake-up. asleep is set by
	// the loop when it finds the inbox empty and is about to block; the
	// producer that clears it owes the loop one token on wake.
	mu       sync.Mutex
	inbox    [][]byte
	inboxCap int
	asleep   bool
	wake     chan struct{} // 1 slot: a token means "look again": frames, a call, or quit

	// Do's call record: one call at a time, so one node-owned pair of
	// channels. callMu serialises the callers from posting fn to taking
	// its token. Every wait under it also selects on quit or done, so
	// Close always frees it.
	callMu sync.Mutex
	calls  chan func()   // 1 slot: the posted call waits here for the loop's next poll
	called chan struct{} // 1 slot: the loop's token that the posted call returned
	quit   chan struct{}
	done   chan struct{}

	start     time.Time
	started   bool
	closeOnce sync.Once
	closeErr  error
	wakeups   uint64 // times the loop came back from blocking; loop-owned

	onRecv rt.ReceiveFunc
	onDone rt.SendDoneFunc
	// scratch holds the packet being delivered, one per kind; loop-owned,
	// lent to onRecv until it returns (see runtime.ReceiveFunc).
	scratch pkt.Scratch

	stats Stats
}

var _ rt.Runtime = (*Node)(nil)

// NewNode joins the transport as cfg.ID and returns the (not yet
// started) node. Frames arriving before Start buffer in the inbox and
// are delivered once the loop runs. Joining a duplicate ID fails with
// ErrDuplicateID.
func NewNode(cfg NodeConfig, tr Transport) (*Node, error) {
	scale := cfg.TimeScale
	if !(scale > 0) { // also NaN, which `<= 0` would let through to wallDelay
		scale = 1
	}
	size := cfg.InboxSize
	if size <= 0 {
		size = DefaultInboxSize
	}
	n := &Node{
		id:       cfg.ID,
		scale:    scale,
		sched:    sim.NewScheduler(),
		inboxCap: size,
		wake:     make(chan struct{}, 1),
		calls:    make(chan func(), 1),
		called:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	conn, err := tr.Join(cfg.ID, n.enqueue)
	if err != nil {
		return nil, err
	}
	n.conn = conn
	return n, nil
}

// enqueue is the transport's receive sink: non-blocking, counting
// drops, callable from any goroutine. It keeps frame, which the
// Transport contract makes the sink's to keep.
func (n *Node) enqueue(frame []byte) {
	n.mu.Lock()
	if len(n.inbox) >= n.inboxCap {
		n.mu.Unlock()
		n.stats.InboxDrops.Add(1)
		return
	}
	n.inbox = append(n.inbox, frame)
	wake := n.asleep
	n.asleep = false
	n.mu.Unlock()
	if wake {
		n.signal()
	}
}

// signal leaves the loop a wake token, unless one is already waiting.
func (n *Node) signal() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// ID implements runtime.Runtime.
func (n *Node) ID() pkt.NodeID { return n.id }

// Stats returns the node's link-runtime counters.
func (n *Node) Stats() *Stats { return &n.stats }

// InboxCap returns the effective inbox capacity (NodeConfig.InboxSize,
// or DefaultInboxSize when that was left zero) — the bound
// Stats.InboxDrops counts against.
func (n *Node) InboxCap() int { return n.inboxCap }

// Now implements runtime.Clock. Like every Clock method it must only
// be called from the node's event loop (engine callbacks, Do
// closures) or before Start.
func (n *Node) Now() sim.Time { return n.sched.Now() }

// After implements runtime.Clock.
func (n *Node) After(d sim.Time, fn func()) sim.Timer { return n.sched.After(d, fn) }

// Send implements runtime.Runtime: encode the frame and hand it to the
// transport. A body past the 16-bit wire length is refused, not sent
// with a wrapped length for every receiver to count Malformed. The
// frame's bytes are the transport's from then on, so a sent packet is
// handed back (SendDoneFunc, ok) before Send returns.
func (n *Node) Send(p *pkt.Packet, linkDst pkt.NodeID) bool {
	if p.Body.WireSize() > pkt.MaxBodySize {
		n.stats.SendErrors.Add(1)
		return false
	}
	frame := pkt.EncodeFrame(&pkt.Frame{From: n.id, LinkDst: linkDst, Packet: p})
	if err := n.conn.Send(frame, linkDst); err != nil {
		n.stats.SendErrors.Add(1)
		return false
	}
	n.stats.FramesOut.Add(1)
	n.stats.BytesOut.Add(uint64(len(frame)))
	if n.onDone != nil {
		n.onDone(p, linkDst, true)
	}
	return true
}

// Bind implements runtime.Runtime.
func (n *Node) Bind(onReceive rt.ReceiveFunc, onSendDone rt.SendDoneFunc) {
	n.onRecv, n.onDone = onReceive, onSendDone
}

// Start launches the event loop. The node's clock starts at zero now.
func (n *Node) Start() {
	if n.started {
		panic("netrt: Node started twice")
	}
	n.started = true
	n.start = time.Now()
	go n.loop()
}

// Close stops the event loop and detaches from the transport. Pending
// timers are abandoned; in-flight Do calls return ErrClosed. Every call,
// concurrent or repeated, returns once the loop has exited.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.quit)
		n.signal()
		if n.started {
			<-n.done
		} else {
			close(n.done)
		}
		n.closeErr = n.conn.Close()
	})
	return n.closeErr
}

// Do runs fn on the event loop and waits for it to finish — the only
// safe way for other goroutines (client APIs, tests) to touch engine
// state. It fails with ErrClosed once the node is closing. Do allocates
// nothing, so a call with a closure bound once costs no allocation.
func (n *Node) Do(fn func()) error {
	n.callMu.Lock()
	defer n.callMu.Unlock()
	select {
	case n.calls <- fn:
		n.signal()
	case <-n.quit:
		return ErrClosed
	}
	select {
	case <-n.called:
		return nil
	case <-n.done:
		// The loop exited. It sends the token before it can exit, so a
		// call it ran has its token waiting. A call it never took stays
		// in calls, where every later Do finds the slot full and quit
		// closed: no token is ever left for the next caller.
		select {
		case <-n.called:
			return nil
		default:
			return ErrClosed
		}
	}
}

// simNow maps the wall clock onto the node's timeline.
func (n *Node) simNow() sim.Time {
	return sim.Time(float64(time.Since(n.start)) * n.scale)
}

// wallDelay converts a node-timeline delay into wall time, rounded up:
// a wake-up must not land before the deadline it was armed for, or the
// loop would find nothing due and spin on zero delays until wall time
// caught up. A delay past the longest Duration saturates to it; the
// conversion would wrap it negative, and a negative wake-up fires at
// once, every time the loop blocks.
func (n *Node) wallDelay(d sim.Time) time.Duration {
	if d <= 0 {
		return 0
	}
	w := math.Ceil(float64(d) / n.scale)
	if w >= math.MaxInt64 { // float64(MaxInt64) is 2⁶³, one past it
		return math.MaxInt64
	}
	return time.Duration(w)
}

// loopBatch bounds the frames delivered between two looks at the clock,
// the quit signal and posted calls, so a saturated inbox starves neither
// timers nor Do nor Close.
const loopBatch = 64

// loop is the node's event loop: advance the timer wheel to wall time,
// serve posted calls, deliver queued frames a bounded batch at a time,
// and block only when all three have nothing left.
func (n *Node) loop() {
	defer close(n.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// armedAt is the deadline the wall timer last was set for, or -1 once
	// it fired. It is armed only on the way into blocking, and left alone
	// while the earliest deadline stands.
	armedAt := sim.Time(-1)
	var batch [][]byte // frames taken from the inbox; batch[next:] undelivered
	next := 0
	for {
		n.sched.Run(n.simNow())
		select {
		case <-n.quit:
			return
		default:
		}
		select {
		case fn := <-n.calls:
			fn()
			n.called <- struct{}{} // never blocks: callMu admits one call at a time
			continue
		default:
		}
		if next == len(batch) {
			// Swap the queued frames for the emptied batch. Finding none
			// marks the loop asleep, under the lock producers check it with.
			n.mu.Lock()
			batch, n.inbox, next = n.inbox, batch[:0], 0
			n.asleep = len(batch) == 0
			n.mu.Unlock()
		}
		if next < len(batch) {
			for end := min(next+loopBatch, len(batch)); next < end; next++ {
				n.deliver(batch[next])
				batch[next] = nil
			}
			continue
		}

		var timeC <-chan time.Time
		if at, ok := n.sched.NextAt(); ok {
			if at != armedAt {
				timer.Reset(n.wallDelay(at - n.sched.Now()))
				armedAt = at
			}
			timeC = timer.C
		}
		select {
		case <-n.wake:
		case <-timeC:
			armedAt = -1
		}
		n.wakeups++
	}
}

// deliver decodes one inbound frame on the event loop and hands it up
// the stack. Malformed or misaddressed frames are counted and dropped
// — on a live socket they are routine, never fatal. Every packet lands
// in the node's scratch: a frame the stack discards allocates nothing.
func (n *Node) deliver(frame []byte) {
	f, err := n.scratch.DecodeFrame(frame)
	if err != nil {
		n.stats.Malformed.Add(1)
		return
	}
	if f.From == n.id {
		// A broadcast-medium transport may echo our own frames back.
		return
	}
	broadcast := f.LinkDst == pkt.Broadcast
	if !broadcast && f.LinkDst != n.id {
		n.stats.Filtered.Add(1)
		return
	}
	n.stats.FramesIn.Add(1)
	n.stats.BytesIn.Add(uint64(len(frame)))
	if n.onRecv != nil {
		n.onRecv(f.Packet, f.From, broadcast)
	}
}

// String identifies the node in logs.
func (n *Node) String() string { return fmt.Sprintf("netrt(%v)", n.id) }
