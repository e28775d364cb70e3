// Package pkt defines the network-layer message vocabulary of the
// reproduction: node/group addressing, packet headers, and one body type
// per protocol message (AODV control, MAODV control, multicast data, and
// the two Anonymous Gossip messages from paper §4.1/§4.4).
//
// Every body has a binary wire codec (encoding/binary, big endian). The
// simulator passes decoded structs between nodes for speed, but all MAC
// airtime calculations use the true marshaled size, and codec round-trip
// tests keep WireSize honest.
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

var kindNames = map[Kind]string{
	KindHello:     "HELLO",
	KindRREQ:      "RREQ",
	KindRREP:      "RREP",
	KindRERR:      "RERR",
	KindMACT:      "MACT",
	KindGRPH:      "GRPH",
	KindNearest:   "NEAREST",
	KindData:      "DATA",
	KindGossipReq: "GOSSIP-REQ",
	KindGossipRep: "GOSSIP-REP",
	KindJoinQuery: "JOIN-QUERY",
	KindJoinReply: "JOIN-REPLY",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
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
	// AppendTo appends the marshaled body to b and returns the extended
	// slice.
	AppendTo(b []byte) []byte
	// CloneBody returns a deep copy, for safe per-hop mutation of
	// forwarded packets.
	CloneBody() Body
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
	// ErrTrailingBytes reports extra bytes after a well-formed packet.
	ErrTrailingBytes = errors.New("pkt: trailing bytes")
)

// Encode marshals the packet.
func Encode(p *Packet) []byte {
	b := make([]byte, 0, p.WireSize())
	b = append(b, byte(p.Kind))
	b = appendU32(b, uint32(p.Src))
	b = appendU32(b, uint32(p.Dst))
	b = append(b, p.TTL)
	b = appendU16(b, uint16(p.Body.WireSize()))
	return p.Body.AppendTo(b)
}

// dataPacket is a Data packet's header and body in one allocation. Data
// is nearly every frame of a live multicast stream, so a decode or Clone
// pays one allocation, not two — or none, into a receive loop's Scratch.
type dataPacket struct {
	Packet
	data Data
}

// Decode unmarshals a packet produced by Encode.
func Decode(b []byte) (*Packet, error) { return decode(b, nil) }

// decode is the one packet decoder. A Data packet lands in dp (a fresh
// one when dp is nil), which is written only after every check passed.
func decode(b []byte, dp *dataPacket) (*Packet, error) {
	if len(b) < headerSize {
		return nil, ErrTruncated
	}
	kind := Kind(b[0])
	bodyLen := int(u16(b[10:]))
	rest := b[headerSize:]
	if len(rest) < bodyLen {
		return nil, ErrTruncated
	}
	if len(rest) > bodyLen {
		return nil, ErrTrailingBytes
	}
	var p *Packet
	if kind == KindData {
		var d Data
		if err := d.decode(rest); err != nil {
			return nil, err
		}
		if dp == nil {
			dp = new(dataPacket)
		}
		dp.data = d
		dp.Body, p = &dp.data, &dp.Packet
	} else {
		body, err := decodeBody(kind, rest)
		if err != nil {
			return nil, err
		}
		p = &Packet{Body: body}
	}
	p.Kind, p.Src, p.Dst, p.TTL = kind, NodeID(u32(b[1:])), NodeID(u32(b[5:])), b[9]
	return p, nil
}

// decodeBody decodes every body kind but Data, which decode places
// inside the packet's own allocation.
func decodeBody(k Kind, b []byte) (Body, error) {
	switch k {
	case KindHello:
		return decodeHello(b)
	case KindRREQ:
		return decodeRREQ(b)
	case KindRREP:
		return decodeRREP(b)
	case KindRERR:
		return decodeRERR(b)
	case KindMACT:
		return decodeMACT(b)
	case KindGRPH:
		return decodeGRPH(b)
	case KindNearest:
		return decodeNearest(b)
	case KindGossipReq:
		return decodeGossipReq(b)
	case KindGossipRep:
		return decodeGossipRep(b)
	case KindJoinQuery:
		return decodeJoinQuery(b)
	case KindJoinReply:
		return decodeJoinReply(b)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
}

// --- little encode helpers (big endian) ---

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func u16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
