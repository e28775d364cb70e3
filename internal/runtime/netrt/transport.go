package netrt

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"anongossip/internal/pkt"
)

// ErrDuplicateID reports a Join (or peer registration) with a node ID
// the transport already has — the live-transport mirror of the radio
// medium's Attach contract (radio.ErrDuplicateNode): a misconfigured
// cluster must fail loudly at join time rather than silently splitting
// one identity across two processes.
var ErrDuplicateID = errors.New("netrt: node id already joined")

// ErrClosed reports an operation on a closed transport or node.
var ErrClosed = errors.New("netrt: closed")

// Transport admits nodes onto a shared link-level medium. Join hands
// the transport the node's receive sink and returns the node's send
// side.
//
// The sink is called from a transport goroutine with the raw frame
// bytes and must not block. It takes shared, read-only ownership of the
// slice: it may keep it for as long as it likes (Node queues it in the
// inbox), other sinks may hold the same slice (ChanTransport hands one
// buffer to every peer), and nobody writes to it again. A transport
// therefore passes only buffers it will never reuse — UDPTransport
// copies each datagram out of its read buffer — and a Conn.Send caller
// gives up the frame it sends.
type Transport interface {
	Join(id pkt.NodeID, recv func(frame []byte)) (Conn, error)
}

// Conn is one joined node's send side of a transport.
type Conn interface {
	// Send transmits one encoded frame to linkDst (pkt.Broadcast for
	// every peer). Delivery is best-effort, like the radio it stands in
	// for; an error means the frame certainly did not leave this node.
	// The caller must not write to frame afterwards: receivers may keep it.
	Send(frame []byte, linkDst pkt.NodeID) error
	// Close detaches the node from the transport.
	Close() error
}

// --- peer table shared by both transports ---

// peer is one addressable endpoint of a transport.
type peer[T any] struct {
	id  pkt.NodeID
	end T
}

// peerTable is a transport's set of endpoints, sorted by ID. A published
// table is immutable: add and remove store an edited copy, and Send
// reaches its targets through one atomic load, with no lock, map walk or
// allocation.
type peerTable[T any] struct {
	mu   sync.Mutex // serialises add and remove
	snap atomic.Pointer[[]peer[T]]
}

func (t *peerTable[T]) load() []peer[T] {
	if p := t.snap.Load(); p != nil {
		return *p
	}
	return nil
}

func findPeer[T any](peers []peer[T], id pkt.NodeID) (int, bool) {
	return slices.BinarySearchFunc(peers, id, func(p peer[T], id pkt.NodeID) int { return cmp.Compare(p.id, id) })
}

// add publishes a table with id registered as end, unless id is taken.
func (t *peerTable[T]) add(id pkt.NodeID, end T) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	peers := t.load()
	i, taken := findPeer(peers, id)
	if !taken {
		peers = slices.Insert(slices.Clone(peers), i, peer[T]{id, end})
		t.snap.Store(&peers)
	}
	return !taken
}

// remove publishes a table without id.
func (t *peerTable[T]) remove(id pkt.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	peers := t.load()
	if i, ok := findPeer(peers, id); ok {
		peers = slices.Delete(slices.Clone(peers), i, i+1)
		t.snap.Store(&peers)
	}
}

// targets is the addressing rule of both transports: a broadcast goes
// to every endpoint (the sender skips its own), a unicast to the
// addressed one only, and to nobody if that ID is unknown. The result is
// a view of the published table.
func (t *peerTable[T]) targets(linkDst pkt.NodeID) []peer[T] {
	peers := t.load()
	if linkDst == pkt.Broadcast {
		return peers
	}
	if i, ok := findPeer(peers, linkDst); ok {
		return peers[i : i+1]
	}
	return nil
}

// --- in-process channel transport ---

// ChanTransport is a hermetic in-process medium: every joined node
// hears every broadcast, unicasts go to the addressed node only.
// It exists so clusters of live nodes can run inside one test process
// with no sockets, deterministically enough for -race CI jobs.
type ChanTransport struct {
	conns peerTable[*chanConn]
}

// NewChanTransport returns an empty in-process medium.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Join implements Transport. Joining an ID that is already on the
// medium fails with ErrDuplicateID.
func (t *ChanTransport) Join(id pkt.NodeID, recv func(frame []byte)) (Conn, error) {
	c := &chanConn{t: t, id: id, recv: recv}
	if !t.conns.add(id, c) {
		return nil, fmt.Errorf("%w: %v", ErrDuplicateID, id)
	}
	return c, nil
}

type chanConn struct {
	t      *ChanTransport
	id     pkt.NodeID
	recv   func(frame []byte)
	closed atomic.Bool
}

// Send implements Conn. The sender never hears its own broadcasts,
// matching the radio medium's half-duplex behaviour. Every peer's sink
// gets the same slice; sinks only enqueue, so running them on the
// sender's goroutine cannot block it.
func (c *chanConn) Send(frame []byte, linkDst pkt.NodeID) error {
	if c.closed.Load() {
		return ErrClosed
	}
	for _, p := range c.t.conns.targets(linkDst) {
		if p.id != c.id {
			p.end.recv(frame)
		}
	}
	return nil
}

// Close implements Conn.
func (c *chanConn) Close() error {
	if !c.closed.Swap(true) {
		c.t.conns.remove(c.id)
	}
	return nil
}

// --- UDP transport ---

// UDPTransport carries frames over a real UDP socket with a static
// peer table: one socket, one joined node per transport value. A
// broadcast frame is written once per known peer (UDP has no useful
// portable broadcast on loopback and testbeds, and the peer table is
// exactly the neighbour set anyway).
type UDPTransport struct {
	conn  *net.UDPConn
	peers peerTable[*net.UDPAddr]

	mu     sync.Mutex // guards joined and self; serialises AddPeer and Join
	joined bool
	self   pkt.NodeID
	closed atomic.Bool

	readerDone chan struct{}
}

// NewUDP binds a UDP socket on listen (e.g. "127.0.0.1:7001", or
// ":0" for an ephemeral port).
func NewUDP(listen string) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("netrt: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrt: listen %q: %w", listen, err)
	}
	return &UDPTransport{conn: conn, readerDone: make(chan struct{})}, nil
}

// Addr returns the bound socket address (useful with ":0").
func (t *UDPTransport) Addr() string { return t.conn.LocalAddr().String() }

// AddPeer registers a remote node's address. Registering the same ID
// twice with a different address fails with ErrDuplicateID — two
// processes claiming one identity is the same misconfiguration the
// radio medium rejects at Attach.
func (t *UDPTransport) AddPeer(id pkt.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("netrt: resolve peer %v at %q: %w", id, addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	peers := t.peers.load()
	if i, dup := findPeer(peers, id); dup && peers[i].end.String() != ua.String() {
		return fmt.Errorf("%w: peer %v at both %v and %v", ErrDuplicateID, id, peers[i].end, ua)
	}
	if t.joined && id == t.self {
		return fmt.Errorf("%w: peer %v is this node's own id", ErrDuplicateID, id)
	}
	t.peers.add(id, ua) // a repeat of the same address changes nothing
	return nil
}

// Join implements Transport. The joining ID must not collide with a
// registered peer, and a UDPTransport carries exactly one node.
func (t *UDPTransport) Join(id pkt.NodeID, recv func(frame []byte)) (Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, ErrClosed
	}
	if t.joined {
		return nil, fmt.Errorf("%w: transport already carries %v", ErrDuplicateID, t.self)
	}
	if _, dup := findPeer(t.peers.load(), id); dup {
		return nil, fmt.Errorf("%w: %v is already a registered peer", ErrDuplicateID, id)
	}
	t.joined, t.self = true, id
	go t.readLoop(recv)
	return (*udpConn)(t), nil
}

// readLoop pumps datagrams into the node's sink until the socket
// closes.
func (t *UDPTransport) readLoop(recv func(frame []byte)) {
	defer close(t.readerDone)
	buf := make([]byte, 64<<10)
	for {
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed socket (or fatal error): the node is done
		}
		// The sink keeps what it is given; buf is about to be overwritten.
		frame := make([]byte, n)
		copy(frame, buf[:n])
		recv(frame)
	}
}

// udpConn is the send side of a joined UDPTransport.
type udpConn UDPTransport

// Send implements Conn: one datagram per target of the shared
// addressing rule. The table never holds the node's own ID (AddPeer and
// Join refuse it), so a broadcast has no entry to skip.
func (c *udpConn) Send(frame []byte, linkDst pkt.NodeID) error {
	t := (*UDPTransport)(c)
	if t.closed.Load() {
		return ErrClosed
	}
	dsts := t.peers.targets(linkDst)
	if len(dsts) == 0 && linkDst != pkt.Broadcast {
		return fmt.Errorf("netrt: no peer %v in the peer table", linkDst)
	}
	var firstErr error
	for _, p := range dsts {
		if _, err := t.conn.WriteToUDP(frame, p.end); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Conn: it closes the socket and waits for the reader
// to drain.
func (c *udpConn) Close() error {
	t := (*UDPTransport)(c)
	if t.closed.Swap(true) {
		return nil
	}
	err := t.conn.Close()
	<-t.readerDone
	return err
}
