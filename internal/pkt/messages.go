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

func (h *Hello) code(c coder) coder {
	u32(&c, &h.Seq)
	return c
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

// Join reports whether the join flag is set.
func (r *RREQ) Join() bool { return r.Flags&RREQJoin != 0 }

// Repair reports whether the repair flag is set.
func (r *RREQ) Repair() bool { return r.Flags&RREQRepair != 0 }

func (r *RREQ) code(c coder) coder {
	u8(&c, &r.Flags)
	u8(&c, &r.HopCount)
	u32(&c, &r.ID)
	u32(&c, &r.Dst)
	u32(&c, &r.DstSeq)
	u32(&c, &r.Orig)
	u32(&c, &r.OrigSeq)
	u8(&c, &r.LeaderHops)
	return c
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

// Multicast reports whether this is a multicast (join/repair) reply.
func (r *RREP) Multicast() bool { return r.Flags&RREPMulticast != 0 }

// Member reports whether the replying node is a group member.
func (r *RREP) Member() bool { return r.Flags&RREPMember != 0 }

func (r *RREP) code(c coder) coder {
	u8(&c, &r.Flags)
	u8(&c, &r.HopCount)
	u32(&c, &r.Dst)
	u32(&c, &r.DstSeq)
	u32(&c, &r.Orig)
	u32(&c, &r.LifetimeMS)
	u32(&c, &r.Leader)
	u32(&c, &r.Replier)
	u8(&c, &r.LeaderHops)
	u32(&c, &r.RREQID)
	return c
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

func (r *RERR) code(c coder) coder {
	for i := range count(&c, &r.Dests) {
		u32(&c, &r.Dests[i].Addr)
		u32(&c, &r.Dests[i].Seq)
	}
	return c
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

// Join reports whether the join flag is set.
func (m *MACT) Join() bool { return m.Flags&MACTJoin != 0 }

// Prune reports whether the prune flag is set.
func (m *MACT) Prune() bool { return m.Flags&MACTPrune != 0 }

// GroupLeader reports whether the leader-delegation flag is set.
func (m *MACT) GroupLeader() bool { return m.Flags&MACTGroupLeader != 0 }

// MemberOrigin reports whether the activation originated at a member.
func (m *MACT) MemberOrigin() bool { return m.Flags&MACTMemberOrigin != 0 }

func (m *MACT) code(c coder) coder {
	u32(&c, &m.Group)
	u32(&c, &m.Src)
	u8(&c, &m.Flags)
	u8(&c, &m.HopsFromOrigin)
	u32(&c, &m.RREQID)
	return c
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

func (g *GRPH) code(c coder) coder {
	u32(&c, &g.Group)
	u32(&c, &g.Leader)
	u32(&c, &g.GroupSeq)
	u8(&c, &g.HopCount)
	return c
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

func (n *Nearest) code(c coder) coder {
	u32(&c, &n.Group)
	u8(&c, &n.Dist)
	return c
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

// WireSize implements Body.
func (d *Data) WireSize() int { return 14 + int(d.PayloadLen) }

// Key returns the (origin, seq) identity of the packet.
func (d *Data) Key() SeqKey { return SeqKey{Origin: d.Origin, Seq: d.Seq} }

// code runs on a Data in place, so its caller chooses where the Data
// lives: inside the packet's allocation (decode), or inside a gossip
// message's slice.
func (d *Data) code(c coder) coder {
	u32(&c, &d.Group)
	u32(&c, &d.Origin)
	u32(&c, &d.Seq)
	u16(&c, &d.PayloadLen)
	c.zeros(int(d.PayloadLen))
	return c
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

// Uint64 packs k into one table.Table key, origin in the high half:
// distinct keys pack to distinct words.
func (k SeqKey) Uint64() uint64 { return uint64(k.Origin)<<32 | uint64(k.Seq) }

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
}

var _ Body = (*GossipReq)(nil)

// Kind implements Body.
func (*GossipReq) Kind() Kind { return KindGossipReq }

// WireSize implements Body.
func (g *GossipReq) WireSize() int {
	return 4 + 4 + 1 + 1 + 1 + 8*len(g.Lost) + 1 + 8*len(g.Expected)
}

// Cached reports whether this is a cached-gossip request.
func (g *GossipReq) Cached() bool { return g.Flags&GossipCached != 0 }

func (g *GossipReq) code(c coder) coder {
	u32(&c, &g.Group)
	u32(&c, &g.Initiator)
	u8(&c, &g.Flags)
	u8(&c, &g.HopsTraveled)
	for i := range count(&c, &g.Lost) {
		u32(&c, &g.Lost[i].Origin)
		u32(&c, &g.Lost[i].Seq)
	}
	for i := range count(&c, &g.Expected) {
		u32(&c, &g.Expected[i].Origin)
		u32(&c, &g.Expected[i].NextSeq)
	}
	return c
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

func (g *GossipRep) code(c coder) coder {
	u32(&c, &g.Group)
	u32(&c, &g.Responder)
	u8(&c, &g.WalkHops)
	for i := range count(&c, &g.Msgs) {
		c = g.Msgs[i].code(c)
	}
	return c
}
