package netrt

import (
	"errors"
	"testing"
	"time"

	"anongossip/internal/pkt"
)

func TestChanTransportDuplicateJoin(t *testing.T) {
	tr := NewChanTransport()
	c1, err := tr.Join(1, func([]byte) {})
	if err != nil {
		t.Fatalf("first Join: %v", err)
	}
	if _, err := tr.Join(1, func([]byte) {}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate Join err = %v, want ErrDuplicateID", err)
	}
	// Leaving frees the ID for a rejoin (a restarted node).
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := tr.Join(1, func([]byte) {}); err != nil {
		t.Fatalf("rejoin after Close: %v", err)
	}
}

func TestChanTransportAddressing(t *testing.T) {
	tr := NewChanTransport()
	got := make(map[pkt.NodeID][][]byte)
	var conns [4]Conn
	for id := pkt.NodeID(1); id <= 3; id++ {
		id := id
		c, err := tr.Join(id, func(frame []byte) { got[id] = append(got[id], frame) })
		if err != nil {
			t.Fatalf("Join %v: %v", id, err)
		}
		conns[id] = c
	}

	if err := conns[1].Send([]byte("bcast"), pkt.Broadcast); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := conns[1].Send([]byte("uni"), 3); err != nil {
		t.Fatalf("unicast: %v", err)
	}

	if n := len(got[1]); n != 0 {
		t.Errorf("sender heard %d of its own frames", n)
	}
	if n := len(got[2]); n != 1 {
		t.Errorf("node 2 got %d frames, want 1 (broadcast only)", n)
	}
	if n := len(got[3]); n != 2 {
		t.Errorf("node 3 got %d frames, want 2 (broadcast + unicast)", n)
	}

	if err := conns[2].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := conns[2].Send([]byte("late"), pkt.Broadcast); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed conn err = %v, want ErrClosed", err)
	}
}

func TestUDPTransportDuplicateChecks(t *testing.T) {
	tr, err := NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	if err := tr.AddPeer(2, "127.0.0.1:9001"); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	// Same ID, same address: idempotent.
	if err := tr.AddPeer(2, "127.0.0.1:9001"); err != nil {
		t.Errorf("re-AddPeer same addr: %v", err)
	}
	// Same ID, different address: rejected.
	if err := tr.AddPeer(2, "127.0.0.1:9002"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("AddPeer conflicting addr err = %v, want ErrDuplicateID", err)
	}
	// Joining an ID that is already a peer: rejected.
	if _, err := tr.Join(2, func([]byte) {}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Join as registered peer err = %v, want ErrDuplicateID", err)
	}
	conn, err := tr.Join(1, func([]byte) {})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// One node per transport.
	if _, err := tr.Join(3, func([]byte) {}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("second Join err = %v, want ErrDuplicateID", err)
	}
	// Registering the node's own ID as a peer: rejected.
	if err := tr.AddPeer(1, "127.0.0.1:9003"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("AddPeer own id err = %v, want ErrDuplicateID", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	ta, err := NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewUDP a: %v", err)
	}
	tb, err := NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewUDP b: %v", err)
	}
	if err := ta.AddPeer(2, tb.Addr()); err != nil {
		t.Fatalf("a.AddPeer: %v", err)
	}
	if err := tb.AddPeer(1, ta.Addr()); err != nil {
		t.Fatalf("b.AddPeer: %v", err)
	}

	gotA, gotB := make(chan []byte, 8), make(chan []byte, 8)
	ca, err := ta.Join(1, func(f []byte) { gotA <- f })
	if err != nil {
		t.Fatalf("a.Join: %v", err)
	}
	cb, err := tb.Join(2, func(f []byte) { gotB <- f })
	if err != nil {
		t.Fatalf("b.Join: %v", err)
	}
	defer ca.Close()
	defer cb.Close()

	if err := ca.Send([]byte("ping"), pkt.Broadcast); err != nil {
		t.Fatalf("a broadcast: %v", err)
	}
	select {
	case f := <-gotB:
		if string(f) != "ping" {
			t.Fatalf("b received %q, want %q", f, "ping")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never received the broadcast")
	}
	if err := cb.Send([]byte("pong"), 1); err != nil {
		t.Fatalf("b unicast: %v", err)
	}
	select {
	case f := <-gotA:
		if string(f) != "pong" {
			t.Fatalf("a received %q, want %q", f, "pong")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a never received the unicast")
	}

	// Unicast to an unknown peer fails loudly.
	if err := ca.Send([]byte("x"), 42); err == nil {
		t.Error("Send to unknown peer succeeded, want error")
	}
}

// TestChanTransportSendAllocs pins the lock-free fan-out: a broadcast to
// seven peers reads the published peer table and allocates nothing.
func TestChanTransportSendAllocs(t *testing.T) {
	tr := NewChanTransport()
	heard := 0
	var sender Conn
	for id := pkt.NodeID(1); id <= 8; id++ {
		c, err := tr.Join(id, func([]byte) { heard++ })
		if err != nil {
			t.Fatalf("Join %v: %v", id, err)
		}
		if id == 4 {
			sender = c
		}
	}
	frame := []byte("frame")
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := sender.Send(frame, pkt.Broadcast); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("broadcast to 7 peers: %v allocs, want 0", allocs)
	}
	if heard%7 != 0 || heard == 0 {
		t.Errorf("%d sink calls, want a multiple of 7", heard)
	}
}

// TestSentFramesAreNeverReused pins the sender's half of the frame
// ownership rule: every peer of a ChanTransport holds the very slice
// Node.Send encoded, so Node.Send must encode each frame into a buffer
// of its own — sending again, or changing the packet, cannot reach a
// frame a receiver still holds.
func TestSentFramesAreNeverReused(t *testing.T) {
	tr := NewChanTransport()
	a, err := NewNode(NodeConfig{ID: 1}, tr)
	if err != nil {
		t.Fatalf("NewNode a: %v", err)
	}
	defer a.Close()
	var held [][]byte
	if _, err := tr.Join(2, func(f []byte) { held = append(held, f) }); err != nil {
		t.Fatalf("tap Join: %v", err)
	}
	b, err := NewNode(NodeConfig{ID: 3}, tr)
	if err != nil {
		t.Fatalf("NewNode b: %v", err)
	}
	defer b.Close()
	var seqs []uint32 // b's loop owns it
	b.Bind(func(p *pkt.Packet, _ pkt.NodeID, _ bool) { seqs = append(seqs, p.Body.(*pkt.Data).Seq) }, nil)

	body := &pkt.Data{Origin: 1, Seq: 1, PayloadLen: 8}
	p := pkt.NewPacket(1, pkt.Broadcast, body)
	for seq := uint32(1); seq <= 3; seq++ {
		body.Seq = seq // the sender recycles its packet between sends
		if !a.Send(p, pkt.Broadcast) {
			t.Fatalf("Send %d failed", seq)
		}
	}
	body.Seq = 99

	// b decodes only now, after the sender has moved on.
	b.Start()
	waitFor(t, 5*time.Second, func() bool { return b.Stats().FramesIn.Load() == 3 }, "three frames at b")
	if err := b.Do(func() {
		if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
			t.Errorf("b decoded seqs %v, want [1 2 3]", seqs)
		}
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, raw := range held {
		f, err := pkt.DecodeFrame(raw)
		if err != nil {
			t.Fatalf("held frame %d: %v", i, err)
		}
		if got := f.Packet.Body.(*pkt.Data).Seq; got != uint32(i+1) {
			t.Errorf("held frame %d now decodes to seq %d: its buffer was written after Send", i, got)
		}
		for j := 0; j < i; j++ {
			if &held[j][0] == &raw[0] {
				t.Errorf("frames %d and %d share one buffer", j, i)
			}
		}
	}
}
