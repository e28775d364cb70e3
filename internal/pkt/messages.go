package pkt

import "fmt"

// --- HELLO (AODV neighbour beacon) ---

// Hello is the periodic one-hop beacon AODV uses for link sensing. The
// paper configures a 600 ms hello interval with an allowed loss of 4.
type Hello struct {
	// Seq is the sender's hello sequence number.
	Seq uint32
}

var _ Body = (*Hello)(nil)

// Kind implements Body.
func (*Hello) Kind() Kind { return KindHello }

// WireSize implements Body.
func (*Hello) WireSize() int { return 4 }

// AppendTo implements Body.
func (h *Hello) AppendTo(b []byte) []byte { return appendU32(b, h.Seq) }

// CloneBody implements Body.
func (h *Hello) CloneBody() Body { cp := *h; return &cp }

func decodeHello(b []byte) (Body, error) {
	if len(b) != 4 {
		return nil, fmt.Errorf("hello: %w", ErrTruncated)
	}
	return &Hello{Seq: u32(b)}, nil
}

// --- RREQ ---

// RREQ flag bits.
const (
	// RREQJoin marks a multicast group join request (paper §3).
	RREQJoin uint8 = 1 << iota
	// RREQRepair marks a multicast tree repair request; only tree nodes
	// closer to the group leader than LeaderHops may answer.
	RREQRepair
	// RREQUnknownSeq marks a request with no known destination sequence
	// number.
	RREQUnknownSeq
)

// LeaderHopsUnset is the sentinel for RREQ.LeaderHops when the repair
// extension is absent.
const LeaderHopsUnset uint8 = 0xFF

// RREQ is the AODV/MAODV route request, flooded to discover a route to a
// node or (with RREQJoin) to a multicast tree.
type RREQ struct {
	Flags    uint8
	HopCount uint8
	// ID disambiguates floods from the same originator.
	ID uint32
	// Dst is the target node address, or the group address for joins.
	Dst uint32
	// DstSeq is the last known destination (or group) sequence number.
	DstSeq uint32
	// Orig is the requesting node; OrigSeq its own sequence number.
	Orig    NodeID
	OrigSeq uint32
	// LeaderHops carries the repair extension: the requester's previous
	// hop count to the group leader (LeaderHopsUnset when absent).
	LeaderHops uint8
}

var _ Body = (*RREQ)(nil)

// Kind implements Body.
func (*RREQ) Kind() Kind { return KindRREQ }

// WireSize implements Body.
func (*RREQ) WireSize() int { return 23 }

// AppendTo implements Body.
func (r *RREQ) AppendTo(b []byte) []byte {
	b = append(b, r.Flags, r.HopCount)
	b = appendU32(b, r.ID)
	b = appendU32(b, r.Dst)
	b = appendU32(b, r.DstSeq)
	b = appendU32(b, uint32(r.Orig))
	b = appendU32(b, r.OrigSeq)
	return append(b, r.LeaderHops)
}

// CloneBody implements Body.
func (r *RREQ) CloneBody() Body { cp := *r; return &cp }

// Join reports whether the join flag is set.
func (r *RREQ) Join() bool { return r.Flags&RREQJoin != 0 }

// Repair reports whether the repair flag is set.
func (r *RREQ) Repair() bool { return r.Flags&RREQRepair != 0 }

func decodeRREQ(b []byte) (Body, error) {
	if len(b) != 23 {
		return nil, fmt.Errorf("rreq: %w", ErrTruncated)
	}
	return &RREQ{
		Flags:      b[0],
		HopCount:   b[1],
		ID:         u32(b[2:]),
		Dst:        u32(b[6:]),
		DstSeq:     u32(b[10:]),
		Orig:       NodeID(u32(b[14:])),
		OrigSeq:    u32(b[18:]),
		LeaderHops: b[22],
	}, nil
}

// --- RREP ---

// RREP flag bits.
const (
	// RREPMulticast marks a reply to a multicast join or repair RREQ.
	RREPMulticast uint8 = 1 << iota
	// RREPMember marks that the replying tree node is itself a group
	// member. The joiner uses this to seed its gossip member cache "at no
	// extra cost" (paper §4.3).
	RREPMember
)

// RREP is the route reply, unicast back along the reverse path installed
// by the RREQ flood.
type RREP struct {
	Flags    uint8
	HopCount uint8
	// Dst echoes the requested node or group address.
	Dst uint32
	// DstSeq is the replier's sequence number for Dst (group sequence
	// number for multicast replies).
	DstSeq uint32
	// Orig is the original requester the reply travels to.
	Orig NodeID
	// LifetimeMS is the advertised route lifetime in milliseconds.
	LifetimeMS uint32
	// Leader is the multicast group leader (multicast replies only).
	Leader NodeID
	// Replier is the tree node that generated a multicast reply. Joiners
	// use it (with the RREPMember flag) to seed the gossip member cache.
	Replier NodeID
	// LeaderHops is the replying tree node's own hop count to the group
	// leader (multicast replies only); the joiner adds the path length to
	// obtain its tree depth.
	LeaderHops uint8
	// RREQID echoes the request ID so the requester can match replies,
	// and so MACT activation can find the recorded reverse branch.
	RREQID uint32
}

var _ Body = (*RREP)(nil)

// Kind implements Body.
func (*RREP) Kind() Kind { return KindRREP }

// WireSize implements Body.
func (*RREP) WireSize() int { return 31 }

// AppendTo implements Body.
func (r *RREP) AppendTo(b []byte) []byte {
	b = append(b, r.Flags, r.HopCount)
	b = appendU32(b, r.Dst)
	b = appendU32(b, r.DstSeq)
	b = appendU32(b, uint32(r.Orig))
	b = appendU32(b, r.LifetimeMS)
	b = appendU32(b, uint32(r.Leader))
	b = appendU32(b, uint32(r.Replier))
	b = append(b, r.LeaderHops)
	return appendU32(b, r.RREQID)
}

// CloneBody implements Body.
func (r *RREP) CloneBody() Body { cp := *r; return &cp }

// Multicast reports whether this is a multicast (join/repair) reply.
func (r *RREP) Multicast() bool { return r.Flags&RREPMulticast != 0 }

// Member reports whether the replying node is a group member.
func (r *RREP) Member() bool { return r.Flags&RREPMember != 0 }

func decodeRREP(b []byte) (Body, error) {
	if len(b) != 31 {
		return nil, fmt.Errorf("rrep: %w", ErrTruncated)
	}
	return &RREP{
		Flags:      b[0],
		HopCount:   b[1],
		Dst:        u32(b[2:]),
		DstSeq:     u32(b[6:]),
		Orig:       NodeID(u32(b[10:])),
		LifetimeMS: u32(b[14:]),
		Leader:     NodeID(u32(b[18:])),
		Replier:    NodeID(u32(b[22:])),
		LeaderHops: b[26],
		RREQID:     u32(b[27:]),
	}, nil
}

// --- RERR ---

// Unreachable names one destination lost when a link broke.
type Unreachable struct {
	Addr NodeID
	Seq  uint32
}

// RERR reports broken routes to upstream users of those routes.
type RERR struct {
	Dests []Unreachable
}

var _ Body = (*RERR)(nil)

// Kind implements Body.
func (*RERR) Kind() Kind { return KindRERR }

// WireSize implements Body.
func (r *RERR) WireSize() int { return 1 + 8*len(r.Dests) }

// AppendTo implements Body.
func (r *RERR) AppendTo(b []byte) []byte {
	b = append(b, uint8(len(r.Dests)))
	for _, d := range r.Dests {
		b = appendU32(b, uint32(d.Addr))
		b = appendU32(b, d.Seq)
	}
	return b
}

// CloneBody implements Body.
func (r *RERR) CloneBody() Body {
	cp := &RERR{Dests: make([]Unreachable, len(r.Dests))}
	copy(cp.Dests, r.Dests)
	return cp
}

func decodeRERR(b []byte) (Body, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("rerr: %w", ErrTruncated)
	}
	n := int(b[0])
	if len(b) != 1+8*n {
		return nil, fmt.Errorf("rerr: %w", ErrTruncated)
	}
	r := &RERR{Dests: make([]Unreachable, 0, n)}
	for i := 0; i < n; i++ {
		off := 1 + 8*i
		r.Dests = append(r.Dests, Unreachable{
			Addr: NodeID(u32(b[off:])),
			Seq:  u32(b[off+4:]),
		})
	}
	return r, nil
}

// --- MACT (multicast activation, paper §3) ---

// MACT flag bits.
const (
	// MACTJoin activates the selected branch after a join RREP.
	MACTJoin uint8 = 1 << iota
	// MACTPrune removes the sender from the receiver's next hops.
	MACTPrune
	// MACTGroupLeader delegates leader selection downstream after a
	// failed tree repair (partition handling).
	MACTGroupLeader
	// MACTMemberOrigin marks that the activation originated at a group
	// member, making HopsFromOrigin usable as a nearest-member distance.
	MACTMemberOrigin
)

// MACT is the multicast activation message: it travels hop-by-hop to
// enable (join) or disable (prune) tree branches.
type MACT struct {
	Group GroupID
	// Src is the node that originated the activation (the joiner for
	// join MACTs).
	Src   NodeID
	Flags uint8
	// HopsFromOrigin counts hops traveled from the originator. For join
	// MACTs from a member it seeds the receiver's nearest-member field
	// (paper §4.2: "the nearest router adds this new nexthop ... with
	// value of nearest member field set to one").
	HopsFromOrigin uint8
	// RREQID identifies which recorded join/repair reply path to follow.
	RREQID uint32
}

var _ Body = (*MACT)(nil)

// Kind implements Body.
func (*MACT) Kind() Kind { return KindMACT }

// WireSize implements Body.
func (*MACT) WireSize() int { return 14 }

// AppendTo implements Body.
func (m *MACT) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(m.Group))
	b = appendU32(b, uint32(m.Src))
	b = append(b, m.Flags, m.HopsFromOrigin)
	return appendU32(b, m.RREQID)
}

// CloneBody implements Body.
func (m *MACT) CloneBody() Body { cp := *m; return &cp }

// Join reports whether the join flag is set.
func (m *MACT) Join() bool { return m.Flags&MACTJoin != 0 }

// Prune reports whether the prune flag is set.
func (m *MACT) Prune() bool { return m.Flags&MACTPrune != 0 }

// GroupLeader reports whether the leader-delegation flag is set.
func (m *MACT) GroupLeader() bool { return m.Flags&MACTGroupLeader != 0 }

// MemberOrigin reports whether the activation originated at a member.
func (m *MACT) MemberOrigin() bool { return m.Flags&MACTMemberOrigin != 0 }

func decodeMACT(b []byte) (Body, error) {
	if len(b) != 14 {
		return nil, fmt.Errorf("mact: %w", ErrTruncated)
	}
	return &MACT{
		Group:          GroupID(u32(b)),
		Src:            NodeID(u32(b[4:])),
		Flags:          b[8],
		HopsFromOrigin: b[9],
		RREQID:         u32(b[10:]),
	}, nil
}

// --- GRPH (group hello) ---

// GRPH is the group hello the leader floods every GroupHelloInterval
// (5 s in the paper) to refresh group sequence number, leader identity
// and distances.
type GRPH struct {
	Group    GroupID
	Leader   NodeID
	GroupSeq uint32
	HopCount uint8
}

var _ Body = (*GRPH)(nil)

// Kind implements Body.
func (*GRPH) Kind() Kind { return KindGRPH }

// WireSize implements Body.
func (*GRPH) WireSize() int { return 13 }

// AppendTo implements Body.
func (g *GRPH) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(g.Group))
	b = appendU32(b, uint32(g.Leader))
	b = appendU32(b, g.GroupSeq)
	return append(b, g.HopCount)
}

// CloneBody implements Body.
func (g *GRPH) CloneBody() Body { cp := *g; return &cp }

func decodeGRPH(b []byte) (Body, error) {
	if len(b) != 13 {
		return nil, fmt.Errorf("grph: %w", ErrTruncated)
	}
	return &GRPH{
		Group:    GroupID(u32(b)),
		Leader:   NodeID(u32(b[4:])),
		GroupSeq: u32(b[8:]),
		HopCount: b[12],
	}, nil
}

// --- NEAREST (nearest-member modify message, paper §4.2) ---

// NearestUnknown is the distance reported when no member is reachable
// through a branch.
const NearestUnknown uint8 = 0xFF

// Nearest is the AG locality optimisation's "modify message": it tells a
// tree neighbour the hop distance to the nearest group member reachable
// through the sender.
type Nearest struct {
	Group GroupID
	// Dist is the hop count to the nearest member via the sender
	// (NearestUnknown if none).
	Dist uint8
}

var _ Body = (*Nearest)(nil)

// Kind implements Body.
func (*Nearest) Kind() Kind { return KindNearest }

// WireSize implements Body.
func (*Nearest) WireSize() int { return 5 }

// AppendTo implements Body.
func (n *Nearest) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(n.Group))
	return append(b, n.Dist)
}

// CloneBody implements Body.
func (n *Nearest) CloneBody() Body { cp := *n; return &cp }

func decodeNearest(b []byte) (Body, error) {
	if len(b) != 5 {
		return nil, fmt.Errorf("nearest: %w", ErrTruncated)
	}
	return &Nearest{Group: GroupID(u32(b)), Dist: b[4]}, nil
}

// --- DATA (multicast application data) ---

// Data is a multicast data packet. The application payload is synthetic:
// only its length is carried in struct form, but the codec materialises
// PayloadLen zero bytes so wire accounting is exact.
type Data struct {
	Group GroupID
	// Origin is the application-level sender; Seq its per-origin
	// sequence number. Together they form the identity AG tracks in its
	// lost/history tables (paper §4.4).
	Origin     NodeID
	Seq        uint32
	PayloadLen uint16
}

var _ Body = (*Data)(nil)

// Kind implements Body.
func (*Data) Kind() Kind { return KindData }

// dataFixedSize is the marshaled length of the Data fields before the
// payload bytes.
const dataFixedSize = 14

// WireSize implements Body.
func (d *Data) WireSize() int { return dataFixedSize + int(d.PayloadLen) }

// AppendTo implements Body.
func (d *Data) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(d.Group))
	b = appendU32(b, uint32(d.Origin))
	b = appendU32(b, d.Seq)
	b = appendU16(b, d.PayloadLen)
	return append(b, make([]byte, d.PayloadLen)...)
}

// CloneBody implements Body.
func (d *Data) CloneBody() Body { cp := *d; return &cp }

// Key returns the (origin, seq) identity of the packet.
func (d *Data) Key() SeqKey { return SeqKey{Origin: d.Origin, Seq: d.Seq} }

// decode fills d from its marshaled form. It decodes in place so that
// callers choose where the Data lives: inside the packet's allocation
// (Decode), or inside a gossip message's slice.
func (d *Data) decode(b []byte) error {
	if len(b) < dataFixedSize {
		return fmt.Errorf("data: %w", ErrTruncated)
	}
	*d = Data{
		Group:      GroupID(u32(b)),
		Origin:     NodeID(u32(b[4:])),
		Seq:        u32(b[8:]),
		PayloadLen: u16(b[12:]),
	}
	if len(b) != dataFixedSize+int(d.PayloadLen) {
		return fmt.Errorf("data payload: %w", ErrTruncated)
	}
	return nil
}

// --- GOSSIP-REQ (paper §4.1, §4.4) ---

// SeqKey identifies one multicast data packet: the sequence number is a
// 2-tuple of sender address and per-sender counter (paper §4.4).
type SeqKey struct {
	Origin NodeID
	Seq    uint32
}

// String formats the key.
func (k SeqKey) String() string { return fmt.Sprintf("%s#%d", k.Origin, k.Seq) }

// Expect carries the next sequence number the initiator expects from one
// origin, letting the responder supply packets the initiator does not yet
// know it missed.
type Expect struct {
	Origin NodeID
	// NextSeq is the lowest sequence number not yet received (and not in
	// the lost buffer) from Origin.
	NextSeq uint32
}

// GossipReq flag bits.
const (
	// GossipCached marks a cached-gossip request sent directly to a known
	// member (paper §4.3) rather than an anonymous walk.
	GossipCached uint8 = 1 << iota
	// GossipNoReply marks a push-mode gossip that expects no reply (the
	// push alternative the paper's §4.4 rejects in favour of pull; kept
	// for the ablation benchmarks).
	GossipNoReply
)

// GossipReq is the gossip message of paper §4.1: Group Address, Source
// Address, Lost Buffer, Number Lost (implicit in the slice length) and
// Expected Sequence Numbers.
type GossipReq struct {
	Group GroupID
	// Initiator is the member that started the gossip round; replies are
	// unicast to it.
	Initiator NodeID
	Flags     uint8
	// HopsTraveled counts walk hops, bounding the anonymous walk and
	// estimating member distance for the member cache.
	HopsTraveled uint8
	// Lost lists up to LostBufferCap sequence numbers the initiator
	// believes it has lost.
	Lost []SeqKey
	// Expected lists the next expected sequence number per origin.
	Expected []Expect
	// Pushed carries data packets in push-mode gossip (ablation only;
	// the paper's protocol pulls).
	Pushed []Data
}

var _ Body = (*GossipReq)(nil)

// Kind implements Body.
func (*GossipReq) Kind() Kind { return KindGossipReq }

// WireSize implements Body.
func (g *GossipReq) WireSize() int {
	n := 4 + 4 + 1 + 1 + 1 + 8*len(g.Lost) + 1 + 8*len(g.Expected) + 1
	for i := range g.Pushed {
		n += g.Pushed[i].WireSize()
	}
	return n
}

// AppendTo implements Body.
func (g *GossipReq) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(g.Group))
	b = appendU32(b, uint32(g.Initiator))
	b = append(b, g.Flags, g.HopsTraveled, uint8(len(g.Lost)))
	for _, k := range g.Lost {
		b = appendU32(b, uint32(k.Origin))
		b = appendU32(b, k.Seq)
	}
	b = append(b, uint8(len(g.Expected)))
	for _, e := range g.Expected {
		b = appendU32(b, uint32(e.Origin))
		b = appendU32(b, e.NextSeq)
	}
	b = append(b, uint8(len(g.Pushed)))
	for i := range g.Pushed {
		b = g.Pushed[i].AppendTo(b)
	}
	return b
}

// CloneBody implements Body.
func (g *GossipReq) CloneBody() Body {
	cp := *g
	cp.Lost = make([]SeqKey, len(g.Lost))
	copy(cp.Lost, g.Lost)
	cp.Expected = make([]Expect, len(g.Expected))
	copy(cp.Expected, g.Expected)
	cp.Pushed = make([]Data, len(g.Pushed))
	copy(cp.Pushed, g.Pushed)
	return &cp
}

// Cached reports whether this is a cached-gossip request.
func (g *GossipReq) Cached() bool { return g.Flags&GossipCached != 0 }

// NoReply reports whether this is a push-mode request.
func (g *GossipReq) NoReply() bool { return g.Flags&GossipNoReply != 0 }

func decodeGossipReq(b []byte) (Body, error) {
	if len(b) < 11 {
		return nil, fmt.Errorf("gossip-req: %w", ErrTruncated)
	}
	g := &GossipReq{
		Group:        GroupID(u32(b)),
		Initiator:    NodeID(u32(b[4:])),
		Flags:        b[8],
		HopsTraveled: b[9],
	}
	nLost := int(b[10])
	off := 11
	if len(b) < off+8*nLost+1 {
		return nil, fmt.Errorf("gossip-req lost: %w", ErrTruncated)
	}
	g.Lost = make([]SeqKey, 0, nLost)
	for i := 0; i < nLost; i++ {
		g.Lost = append(g.Lost, SeqKey{
			Origin: NodeID(u32(b[off:])),
			Seq:    u32(b[off+4:]),
		})
		off += 8
	}
	nExp := int(b[off])
	off++
	if len(b) < off+8*nExp+1 {
		return nil, fmt.Errorf("gossip-req expected: %w", ErrTruncated)
	}
	g.Expected = make([]Expect, 0, nExp)
	for i := 0; i < nExp; i++ {
		g.Expected = append(g.Expected, Expect{
			Origin:  NodeID(u32(b[off:])),
			NextSeq: u32(b[off+4:]),
		})
		off += 8
	}
	nPush := int(b[off])
	off++
	g.Pushed = make([]Data, 0, nPush)
	for i := 0; i < nPush; i++ {
		if len(b) < off+dataFixedSize {
			return nil, fmt.Errorf("gossip-req pushed: %w", ErrTruncated)
		}
		payloadLen := int(u16(b[off+12:]))
		end := off + dataFixedSize + payloadLen
		if len(b) < end {
			return nil, fmt.Errorf("gossip-req pushed payload: %w", ErrTruncated)
		}
		var d Data
		if err := d.decode(b[off:end]); err != nil {
			return nil, err
		}
		g.Pushed = append(g.Pushed, d)
		off = end
	}
	if off != len(b) {
		return nil, fmt.Errorf("gossip-req: %w", ErrTrailingBytes)
	}
	return g, nil
}

// --- GOSSIP-REP ---

// GossipRep is the gossip reply: the accepting member unicasts copies of
// the requested data packets back to the initiator (paper §4.4).
type GossipRep struct {
	Group GroupID
	// Responder is the member that accepted the gossip.
	Responder NodeID
	// WalkHops is the hop count the request walk had traveled when
	// accepted; the initiator uses it as the member-cache distance
	// estimate.
	WalkHops uint8
	// Msgs carries the recovered data packets.
	Msgs []Data
}

var _ Body = (*GossipRep)(nil)

// Kind implements Body.
func (*GossipRep) Kind() Kind { return KindGossipRep }

// WireSize implements Body.
func (g *GossipRep) WireSize() int {
	n := 4 + 4 + 1 + 1
	for i := range g.Msgs {
		n += g.Msgs[i].WireSize()
	}
	return n
}

// AppendTo implements Body.
func (g *GossipRep) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(g.Group))
	b = appendU32(b, uint32(g.Responder))
	b = append(b, g.WalkHops, uint8(len(g.Msgs)))
	for i := range g.Msgs {
		b = g.Msgs[i].AppendTo(b)
	}
	return b
}

// CloneBody implements Body.
func (g *GossipRep) CloneBody() Body {
	cp := *g
	cp.Msgs = make([]Data, len(g.Msgs))
	copy(cp.Msgs, g.Msgs)
	return &cp
}

func decodeGossipRep(b []byte) (Body, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("gossip-rep: %w", ErrTruncated)
	}
	g := &GossipRep{
		Group:     GroupID(u32(b)),
		Responder: NodeID(u32(b[4:])),
		WalkHops:  b[8],
	}
	n := int(b[9])
	off := 10
	g.Msgs = make([]Data, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < off+dataFixedSize {
			return nil, fmt.Errorf("gossip-rep msg: %w", ErrTruncated)
		}
		payloadLen := int(u16(b[off+12:]))
		end := off + dataFixedSize + payloadLen
		if len(b) < end {
			return nil, fmt.Errorf("gossip-rep payload: %w", ErrTruncated)
		}
		var d Data
		if err := d.decode(b[off:end]); err != nil {
			return nil, err
		}
		g.Msgs = append(g.Msgs, d)
		off = end
	}
	if off != len(b) {
		return nil, fmt.Errorf("gossip-rep: %w", ErrTrailingBytes)
	}
	return g, nil
}
