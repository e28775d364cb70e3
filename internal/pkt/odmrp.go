package pkt

// ODMRP messages (paper §5.5 / §7 future work: "Implementing anonymous
// gossip with other multicast protocols, such as ODMRP and AMRIS, could
// also be done in a similar manner"). ODMRP is mesh-based: sources
// periodically flood Join Queries; members answer with Join Replies that
// walk back toward the source, enlisting relays into the forwarding
// group. Data floods within the forwarding group.

// Additional packet kinds for the ODMRP substrate. Values continue the
// wire-stable sequence in pkt.go.
const (
	KindJoinQuery Kind = iota + 32
	KindJoinReply Kind = iota + 32
)

// JoinQuery is the source's periodic flood refreshing mesh routes.
type JoinQuery struct {
	Group GroupID
	// Source is the flooding data source; Seq its refresh counter.
	Source NodeID
	Seq    uint32
	// HopCount counts hops from the source.
	HopCount uint8
}

var _ Body = (*JoinQuery)(nil)

// Kind implements Body.
func (*JoinQuery) Kind() Kind { return KindJoinQuery }

// WireSize implements Body.
func (*JoinQuery) WireSize() int { return 13 }

// CloneBody implements Body.
func (q *JoinQuery) CloneBody() Body { cp := *q; return &cp }

func (q *JoinQuery) code(c coder) coder {
	u32(&c, &q.Group)
	u32(&c, &q.Source)
	u32(&c, &q.Seq)
	u8(&c, &q.HopCount)
	return c
}

// JoinReply travels hop-by-hop from a member back toward the source,
// setting the forwarding-group flag at each relay.
type JoinReply struct {
	Group GroupID
	// Source identifies whose query this answers; Member is the
	// responding group member.
	Source NodeID
	Member NodeID
	// Seq echoes the query refresh counter.
	Seq uint32
}

var _ Body = (*JoinReply)(nil)

// Kind implements Body.
func (*JoinReply) Kind() Kind { return KindJoinReply }

// WireSize implements Body.
func (*JoinReply) WireSize() int { return 16 }

// CloneBody implements Body.
func (r *JoinReply) CloneBody() Body { cp := *r; return &cp }

func (r *JoinReply) code(c coder) coder {
	u32(&c, &r.Group)
	u32(&c, &r.Source)
	u32(&c, &r.Member)
	u32(&c, &r.Seq)
	return c
}
