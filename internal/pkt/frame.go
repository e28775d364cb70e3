package pkt

import (
	"errors"
	"fmt"
)

// A Frame is the link-layer unit the live transports (runtime/netrt)
// exchange: the transmitting node, the link-level destination
// (Broadcast for one-hop broadcasts), and the network-layer packet. It
// carries exactly what the simulated MAC hands the network layer on
// reception, so both runtimes deliver identical (packet, from,
// broadcast) triples.
//
// Wire layout (big endian, like every pkt codec):
//
//	magic(2) | version(1) | from(4) | linkDst(4) | packet...
//
// The magic and version bytes make stray or stale datagrams on a live
// socket fail fast with a typed error instead of being misparsed.
type Frame struct {
	// From is the link-level transmitter (the previous hop).
	From NodeID
	// LinkDst is the link-level destination; Broadcast addresses every
	// neighbour on the transport.
	LinkDst NodeID
	// Packet is the network-layer payload.
	Packet *Packet
}

// frameMagic marks agnode link frames on the wire ("AG" in ASCII).
const frameMagic uint16 = 0x4147

// FrameVersion is the current frame wire format version.
const FrameVersion uint8 = 1

// frameHeaderSize is the marshaled length of the frame header:
// magic(2) + version(1) + from(4) + linkDst(4).
const frameHeaderSize = 11

// Frame codec errors.
var (
	// ErrBadMagic reports a datagram that is not an agnode frame.
	ErrBadMagic = errors.New("pkt: bad frame magic")
	// ErrBadVersion reports a frame from an incompatible peer version.
	ErrBadVersion = errors.New("pkt: unsupported frame version")
)

// WireSize returns the exact marshaled frame length in bytes.
func (f *Frame) WireSize() int { return frameHeaderSize + f.Packet.WireSize() }

// header is the frame header's field list. Encoding writes this
// build's magic and version; decoding returns what the frame carries,
// for parseFrame to check.
func (f *Frame) header(c *coder) (magic uint16, version uint8) {
	magic, version = frameMagic, FrameVersion
	u16(c, &magic)
	u8(c, &version)
	u32(c, &f.From)
	u32(c, &f.LinkDst)
	return magic, version
}

// EncodeFrame marshals the frame.
func EncodeFrame(f *Frame) []byte {
	c := coder{buf: make([]byte, 0, f.WireSize())}
	f.header(&c)
	f.Packet.encode(&c)
	return c.buf
}

// parseFrame is the one frame decoder. Malformed input — short buffers,
// wrong magic or version, truncated or trailing packet bytes, unknown
// body kinds — yields an error, never a panic: on a live socket every
// datagram is attacker- (or at least misconfiguration-) controlled. s
// is where the packet lands (see decode).
func parseFrame(b []byte, s *Scratch) (Frame, error) {
	c := coder{buf: b, decode: true}
	var f Frame
	switch magic, version := f.header(&c); {
	case c.short:
		return Frame{}, ErrTruncated
	case magic != frameMagic:
		return Frame{}, ErrBadMagic
	case version != FrameVersion:
		return Frame{}, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, version, FrameVersion)
	}
	p, err := decode(&c, s)
	if err != nil {
		return Frame{}, err
	}
	f.Packet = p
	return f, nil
}

// DecodeFrame unmarshals a frame produced by EncodeFrame into storage
// the caller owns. It is small enough to inline, so the Frame stays on
// the caller's stack unless the caller lets it escape.
func DecodeFrame(b []byte) (*Frame, error) {
	f, err := parseFrame(b, nil)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// Scratch is the storage a receive loop decodes packets into, one
// packet per body kind, so a frame costs no allocation once its kind
// has been seen: a body and its lists (RERR.Dests, GossipReq.Lost,
// Expected and Pushed, GossipRep.Msgs) are rebuilt in place and keep
// their capacity, as in Spares.Copy. The zero value is ready.
type Scratch struct {
	dp   dataPacket
	pkts [numKinds]*Packet // every kind but Data, by Kind.slot
}

// packet returns the storage of kind k to decode into, made on first
// use: s's own, or fresh when s is nil. An unknown kind has none.
func (s *Scratch) packet(k Kind) *Packet {
	if !k.known() {
		return nil
	}
	if s == nil {
		return &Packet{Body: kinds[k].empty()}
	}
	if s.pkts[k.slot()] == nil {
		s.pkts[k.slot()] = &Packet{Body: kinds[k].empty()}
	}
	return s.pkts[k.slot()]
}

// DecodeFrame is the package-level DecodeFrame with the frame by value
// and the packet placed in s: it is valid until the next call on s
// (Clone it to keep it). A rejected frame leaves a Data packet in s as
// it was, and the packet of any other kind but its own.
func (s *Scratch) DecodeFrame(b []byte) (Frame, error) { return parseFrame(b, s) }
