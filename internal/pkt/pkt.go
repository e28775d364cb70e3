// Package pkt defines the network-layer message vocabulary of the
// reproduction: node/group addressing, packet headers, and one body type
// per protocol message (AODV control, MAODV control, multicast data, and
// the two Anonymous Gossip messages from paper §4.1/§4.4).
//
// Every body states its wire layout (big endian) once, as the field list
// of its code method; the coder in codec.go runs that list to encode and
// to decode, and does every bounds check. The simulator passes decoded
// structs between nodes for speed, but all MAC airtime calculations use
// the true marshaled size, and codec tests keep WireSize honest.
package pkt

import (
	"errors"
	"fmt"
)

// NodeID identifies a node (an IPv4-like 32-bit address).
type NodeID uint32

// Broadcast is the all-nodes link-local destination.
const Broadcast NodeID = 0xFFFFFFFF

// String formats a node ID; the broadcast address prints as "*".
func (n NodeID) String() string {
	if n == Broadcast {
		return "*"
	}
	return fmt.Sprintf("n%d", uint32(n))
}

// Uint64 is n as a table.Table key.
func (n NodeID) Uint64() uint64 { return uint64(n) }

// GroupID identifies a multicast group (an administratively scoped
// multicast address in the paper's terms).
type GroupID uint32

// String formats a group ID.
func (g GroupID) String() string { return fmt.Sprintf("g%d", uint32(g)) }

// Uint64 is g as a table.Table key.
func (g GroupID) Uint64() uint64 { return uint64(g) }

// Kind discriminates packet bodies.
type Kind uint8

// Packet kinds. Values are wire-stable.
const (
	KindHello Kind = iota + 1
	KindRREQ
	KindRREP
	KindRERR
	KindMACT
	KindGRPH
	KindNearest
	KindData
	KindGossipReq
	KindGossipRep
)

// kinds is the one list of body kinds, indexed by Kind: the name each
// prints as and the empty body the decoder fills.
var kinds = [...]struct {
	name  string
	empty func() Body
}{
	KindHello:     {"HELLO", func() Body { return new(Hello) }},
	KindRREQ:      {"RREQ", func() Body { return new(RREQ) }},
	KindRREP:      {"RREP", func() Body { return new(RREP) }},
	KindRERR:      {"RERR", func() Body { return new(RERR) }},
	KindMACT:      {"MACT", func() Body { return new(MACT) }},
	KindGRPH:      {"GRPH", func() Body { return new(GRPH) }},
	KindNearest:   {"NEAREST", func() Body { return new(Nearest) }},
	KindData:      {"DATA", func() Body { return new(Data) }},
	KindGossipReq: {"GOSSIP-REQ", func() Body { return new(GossipReq) }},
	KindGossipRep: {"GOSSIP-REP", func() Body { return new(GossipRep) }},
	KindJoinQuery: {"JOIN-QUERY", func() Body { return new(JoinQuery) }},
	KindJoinReply: {"JOIN-REPLY", func() Body { return new(JoinReply) }},
}

// Kinds returns every body kind, in ascending order of wire value.
func Kinds() []Kind {
	var out []Kind
	for k := range kinds {
		if Kind(k).known() {
			out = append(out, Kind(k))
		}
	}
	return out
}

// known reports whether k is a body kind.
func (k Kind) known() bool { return int(k) < len(kinds) && kinds[k].empty != nil }

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// IsControl reports whether packets of this kind count as control (rather
// than data or gossip-carried data) overhead in the statistics.
func (k Kind) IsControl() bool {
	switch k {
	case KindData, KindGossipRep:
		return false
	default:
		return true
	}
}

// Body is a typed packet payload.
type Body interface {
	// Kind returns the discriminator the body encodes under.
	Kind() Kind
	// WireSize returns the exact marshaled length in bytes.
	WireSize() int
	// code runs the body's field list through c, in either direction.
	// The coder goes by value: a *coder passed through this interface
	// would escape, and cost an allocation per frame.
	code(c coder) coder
}

// headerSize is the marshaled length of the fixed packet header:
// kind(1) + src(4) + dst(4) + ttl(1) + bodyLen(2).
const headerSize = 12

// MaxBodySize is the largest body the header's 16-bit length can carry;
// the encoders do not check it, a live link (netrt.Node.Send) does.
const MaxBodySize = 1<<16 - 1

// DefaultTTL bounds network-layer forwarding.
const DefaultTTL = 32

// Packet is a network-layer packet: a fixed header plus one typed body.
type Packet struct {
	Kind Kind
	// Src is the network-layer originator (not the previous hop).
	Src NodeID
	// Dst is the final destination; Broadcast for floods and
	// one-hop broadcasts. Multicast data carries its group in the body.
	Dst  NodeID
	TTL  uint8
	Body Body
}

// NewPacket assembles a packet around body, filling Kind from the body.
func NewPacket(src, dst NodeID, body Body) *Packet {
	return &Packet{Kind: body.Kind(), Src: src, Dst: dst, TTL: DefaultTTL, Body: body}
}

// WireSize returns the exact marshaled packet length in bytes. The MAC
// layer uses it to compute transmission airtime.
func (p *Packet) WireSize() int { return headerSize + p.Body.WireSize() }

// Clone returns a deep copy safe for independent per-hop mutation, in
// fresh storage: Spares.Copy with no spares. A Data packet's copy is one
// allocation, laid out like a decoded one.
func (p *Packet) Clone() *Packet { return (*Spares)(nil).Copy(p) }

// NumKinds is the number of body kinds: the ten base kinds, then
// ODMRP's two.
const NumKinds = int(KindGossipRep) + 2

// Slot is a body kind's dense index in [0, NumKinds), for per-kind
// tables, and -1 for a value that is no body kind.
func (k Kind) Slot() int {
	if !k.known() {
		return -1
	}
	return k.slot()
}

// slot is a known kind's dense index, for per-kind tables: the base
// kinds count from 0 and the ODMRP kinds follow them.
func (k Kind) slot() int {
	if k >= KindJoinQuery {
		return int(KindGossipRep) + int(k-KindJoinQuery)
	}
	return int(k) - 1
}

// Spares holds the packets one sender's link has handed back, in one
// free list per kind, for Copy to build into. It belongs to one sender
// (node.Stack keeps one) and is not safe for concurrent use; the zero
// value is empty and ready.
type Spares struct {
	free [NumKinds][maxSpares]*Packet
	n    [NumKinds]uint8
	// more holds spares past a kind's maxSpares, of any kind and at most
	// extra of them: the room Grow made.
	more  []*Packet
	extra int
}

// maxSpares bounds each free list. A steady sender has at most a packet
// or two of a kind with its link at once; the excess of a burst — a
// flood storm, a drained MAC backlog — goes to the collector instead of
// staying live for the rest of the run.
const maxSpares = 2

// Grow makes room for one more spare past the free lists' bound. A
// sender that holds more packets of its own at once than a steady one —
// node.Stack's pending relays — grows its spares with them, so the
// packets its link hands back after such a burst are kept for the next.
func (s *Spares) Grow() { s.extra++ }

// Put gives p back for reuse. The caller must hold the last reference
// to p: Copy rewrites it.
func (s *Spares) Put(p *Packet) {
	switch i := p.Body.Kind().slot(); {
	case s.n[i] < maxSpares:
		s.free[i][s.n[i]] = p
		s.n[i]++
	case len(s.more) < s.extra:
		s.more = append(s.more, p)
	}
}

// take pops a spare of kind k, or returns nil. A nil s has none.
func (s *Spares) take(k Kind) *Packet {
	if s == nil {
		return nil
	}
	if i := k.slot(); s.n[i] > 0 {
		s.n[i]--
		p := s.free[i][s.n[i]]
		s.free[i][s.n[i]] = nil
		return p
	}
	for j := len(s.more) - 1; j >= 0; j-- {
		if p := s.more[j]; p.Body.Kind() == k {
			last := len(s.more) - 1
			s.more[j], s.more[last] = s.more[last], nil
			s.more = s.more[:last]
			return p
		}
	}
	return nil
}

// Copy returns a deep copy of src. It is built in one of s's spares of
// src's kind when there is one — header, body and the capacity of the
// body's lists (Dests, Lost, Expected, Msgs) reused — and in
// fresh storage otherwise. src is only read, so it may be a template on
// the caller's stack. This is the one packet copier: Clone and every
// packet a node.Stack builds go through it.
func (s *Spares) Copy(src *Packet) *Packet {
	var p *Packet
	switch b := src.Body.(type) {
	case *Data:
		if p = s.take(KindData); p == nil {
			dp := new(dataPacket)
			dp.Body = &dp.data
			p = &dp.Packet
		}
		*p.Body.(*Data) = *b
	case *Hello:
		p = copyValue(s, b)
	case *RREQ:
		p = copyValue(s, b)
	case *RREP:
		p = copyValue(s, b)
	case *MACT:
		p = copyValue(s, b)
	case *GRPH:
		p = copyValue(s, b)
	case *Nearest:
		p = copyValue(s, b)
	case *JoinQuery:
		p = copyValue(s, b)
	case *JoinReply:
		p = copyValue(s, b)
	case *RERR:
		var d *RERR
		p, d = spare[RERR](s)
		d.Dests = append(d.Dests[:0], b.Dests...)
	case *GossipReq:
		var d *GossipReq
		p, d = spare[GossipReq](s)
		lost, expected := d.Lost[:0], d.Expected[:0]
		*d = *b
		d.Lost = append(lost, b.Lost...)
		d.Expected = append(expected, b.Expected...)
	case *GossipRep:
		var d *GossipRep
		p, d = spare[GossipRep](s)
		msgs := d.Msgs[:0]
		*d = *b
		d.Msgs = append(msgs, b.Msgs...)
	default:
		// Every body type is in this package, so this is unreachable;
		// formatting src.Body would make every template escape.
		panic("pkt: Copy of an unknown body type")
	}
	p.Kind, p.Src, p.Dst, p.TTL = p.Body.Kind(), src.Src, src.Dst, src.TTL
	return p
}

// spare returns a packet with a *B body to build into: one of s's spares
// of that kind, or fresh storage.
func spare[B any, P interface {
	*B
	Body
}](s *Spares) (*Packet, P) {
	var kind P // Kind reads no field, so a nil body answers it
	if p := s.take(kind.Kind()); p != nil {
		return p, p.Body.(P)
	}
	b := P(new(B))
	return &Packet{Body: b}, b
}

// copyValue copies a body without lists into a spare.
func copyValue[B any, P interface {
	*B
	Body
}](s *Spares, b P) *Packet {
	p, d := spare[B, P](s)
	*d = *b
	return p
}

// String summarises the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s ttl=%d", p.Kind, p.Src, p.Dst, p.TTL)
}

// Codec errors.
var (
	// ErrTruncated reports a buffer shorter than its encoded lengths claim.
	ErrTruncated = errors.New("pkt: truncated packet")
	// ErrUnknownKind reports an unrecognised body discriminator.
	ErrUnknownKind = errors.New("pkt: unknown packet kind")
	// ErrTrailingBytes reports extra bytes after a well-formed packet or
	// body.
	ErrTrailingBytes = errors.New("pkt: trailing bytes")
)

// header is the packet header's field list; the body's length travels
// in it, ahead of the body.
func (p *Packet) header(c *coder, bodyLen *uint16) {
	u8(c, &p.Kind)
	u32(c, &p.Src)
	u32(c, &p.Dst)
	u8(c, &p.TTL)
	u16(c, bodyLen)
}

// encode appends the packet, header then body, to c. It is the one
// packet writer, behind Encode and EncodeFrame.
func (p *Packet) encode(c *coder) {
	n := uint16(p.Body.WireSize())
	p.header(c, &n)
	*c = p.Body.code(*c)
}

// Encode marshals the packet.
func Encode(p *Packet) []byte {
	c := coder{buf: make([]byte, 0, p.WireSize())}
	p.encode(&c)
	return c.buf
}

// dataPacket is a Data packet's header and body in one allocation. Data
// is nearly every frame of a live multicast stream, so a decode or Clone
// pays one allocation, not two — or none, into a receive loop's Scratch.
type dataPacket struct {
	Packet
	data Data
}

// Decode unmarshals a packet produced by Encode.
func Decode(b []byte) (*Packet, error) {
	c := coder{buf: b, decode: true}
	return decode(&c, nil)
}

// decode is the one packet reader: it reads the rest of c's buffer as
// one packet, into s (fresh storage when s is nil). A Data packet is
// written only after every check passed; any other kind is decoded in
// place, over the packet of its kind s holds.
func decode(c *coder, s *Scratch) (*Packet, error) {
	var h Packet
	var bodyLen uint16
	h.header(c, &bodyLen)
	switch {
	case c.short || len(c.buf) < int(bodyLen):
		return nil, ErrTruncated
	case len(c.buf) > int(bodyLen):
		return nil, ErrTrailingBytes
	}
	if h.Kind == KindData {
		var d Data
		*c = d.code(*c)
		if err := c.finish(); err != nil {
			return nil, err
		}
		var dp *dataPacket
		if s != nil {
			dp = &s.dp
		} else {
			dp = new(dataPacket)
		}
		dp.Packet, dp.data = h, d
		dp.Body = &dp.data
		return &dp.Packet, nil
	}
	p := s.packet(h.Kind)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(h.Kind))
	}
	*c = p.Body.code(*c)
	if err := c.finish(); err != nil {
		return nil, err
	}
	h.Body = p.Body
	*p = h
	return p, nil
}
