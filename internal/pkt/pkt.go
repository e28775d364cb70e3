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
		if kinds[k].empty != nil {
			out = append(out, Kind(k))
		}
	}
	return out
}

// empty returns a new zero body of the kind, or nil for an unknown kind.
func (k Kind) empty() Body {
	if int(k) >= len(kinds) || kinds[k].empty == nil {
		return nil
	}
	return kinds[k].empty()
}

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
	// CloneBody returns a deep copy, for safe per-hop mutation of
	// forwarded packets.
	CloneBody() Body
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

// Clone returns a deep copy safe for independent per-hop mutation. A
// Data packet's copy is one allocation, laid out like a decoded one.
func (p *Packet) Clone() *Packet {
	if d, ok := p.Body.(*Data); ok {
		dp := &dataPacket{Packet: *p, data: *d}
		dp.Body = &dp.data
		return &dp.Packet
	}
	cp := *p
	cp.Body = p.Body.CloneBody()
	return &cp
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
// one packet. A Data packet lands in dp (a fresh one when dp is nil),
// which is written only after every check passed.
func decode(c *coder, dp *dataPacket) (*Packet, error) {
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
		if dp == nil {
			dp = new(dataPacket)
		}
		dp.Packet, dp.data = h, d
		dp.Body = &dp.data
		return &dp.Packet, nil
	}
	body := h.Kind.empty()
	if body == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(h.Kind))
	}
	*c = body.code(*c)
	if err := c.finish(); err != nil {
		return nil, err
	}
	p := new(Packet)
	*p = h
	p.Body = body
	return p, nil
}
