// Package odmrp implements a compact On-Demand Multicast Routing
// Protocol (ODMRP, the paper's reference [10]) — the mesh-based
// multicast protocol the paper names first when claiming Anonymous
// Gossip generalises beyond MAODV (§5.5, §7).
//
// ODMRP in brief: every active source periodically floods a Join Query;
// group members answer with Join Replies that travel hop-by-hop back
// along the query's reverse path, setting a soft-state *forwarding
// group* flag at each relay. Data is broadcast and re-broadcast by
// forwarding-group nodes, giving a mesh with redundant paths instead of
// a tree. Reliability still suffers from collisions and stale meshes —
// which is exactly where AG helps.
//
// The gossip engine runs over this substrate through the same two-method
// Tree interface as over MAODV: mesh neighbours (upstream toward each
// source plus reply-downstream nodes) act as walk next hops. ODMRP has
// no nearest-member machinery, so next hops advertise unknown distances
// and the walk degrades to uniform choice — the paper's locality
// optimisation (§4.2) is tree-specific.
package odmrp

import (
	"errors"
	"time"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/runtime"
	"anongossip/internal/sim"
)

// Config parameterises ODMRP.
type Config struct {
	// RefreshInterval is the Join Query flood period of an active
	// source (3 s in the ODMRP literature).
	RefreshInterval time.Duration
	// MeshLifetime is how long forwarding-group membership and mesh
	// links survive without refresh (typically 2–3 refresh periods).
	MeshLifetime time.Duration
	// FloodJitter delays query refloods (hidden-terminal mitigation).
	FloodJitter time.Duration
	// ForwardJitter delays mesh data rebroadcasts.
	ForwardJitter time.Duration
	// CacheSize bounds the duplicate caches.
	CacheSize int
	// PayloadLen is the synthetic application payload size.
	PayloadLen uint16
}

// DefaultConfig returns literature-standard ODMRP parameters.
func DefaultConfig() Config {
	return Config{
		RefreshInterval: 3 * time.Second,
		MeshLifetime:    9 * time.Second,
		FloodJitter:     10 * time.Millisecond,
		ForwardJitter:   3 * time.Millisecond,
		CacheSize:       1024,
		PayloadLen:      64,
	}
}

// Stats counts ODMRP activity at one node.
type Stats struct {
	QueriesSent      uint64
	QueriesForwarded uint64
	RepliesSent      uint64
	RepliesForwarded uint64
	DataSent         uint64
	DataDelivered    uint64
	DataForwarded    uint64
	DataDuplicates   uint64
}

// sourceRoute is the reverse path toward one source.
type sourceRoute struct {
	upstream pkt.NodeID
	seq      uint32
	hops     uint8
	expires  sim.Time
}

// groupState is the per-group ODMRP state.
type groupState struct {
	member bool
	// forwarding is the forwarding-group flag with its lifetime.
	forwardingUntil sim.Time
	// routes tracks the freshest reverse path per source.
	routes map[pkt.NodeID]*sourceRoute
	// links maps mesh neighbours usable by the gossip walk to the expiry
	// of their soft state.
	links map[pkt.NodeID]sim.Time

	data node.SeqCache

	refreshTimer sim.Timer
	querySeq     uint32
	nextDataSeq  uint32
}

// Router is one node's ODMRP entity.
type Router struct {
	cfg   Config
	stack *node.Stack
	sched runtime.Clock
	rng   *sim.RNG

	groups map[pkt.GroupID]*groupState
	subs   []func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)
	stats  Stats
}

// New builds an ODMRP router bound to the node stack.
// A non-positive CacheSize panics: the duplicate ring needs a slot.
func New(st *node.Stack, rng *sim.RNG, cfg Config) *Router {
	if cfg.CacheSize <= 0 {
		panic("odmrp: CacheSize must be positive")
	}
	r := &Router{
		cfg:    cfg,
		stack:  st,
		sched:  st.Clock(),
		rng:    rng,
		groups: make(map[pkt.GroupID]*groupState),
	}
	st.Handle(pkt.KindJoinQuery, r.onJoinQuery)
	st.Handle(pkt.KindJoinReply, r.onJoinReply)
	st.Handle(pkt.KindData, r.onData)
	return r
}

// OnDeliver subscribes to member deliveries.
func (r *Router) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)) {
	r.subs = append(r.subs, fn)
}

// Stats returns a copy of the counters.
func (r *Router) Stats() Stats { return r.stats }

// Delivered counts unique data packets delivered to the member.
func (r *Router) Delivered() uint64 { return r.stats.DataDelivered }

func (r *Router) groupState(g pkt.GroupID) *groupState {
	gs, ok := r.groups[g]
	if !ok {
		gs = &groupState{
			routes: make(map[pkt.NodeID]*sourceRoute),
			links:  make(map[pkt.NodeID]sim.Time),
			data:   node.NewSeqCache(r.cfg.CacheSize),
		}
		r.groups[g] = gs
	}
	return gs
}

// Join registers group membership; members answer queries and deliver.
func (r *Router) Join(g pkt.GroupID) { r.groupState(g).member = true }

// Leave revokes membership; soft state decays on its own.
func (r *Router) Leave(g pkt.GroupID) {
	if gs, ok := r.groups[g]; ok {
		gs.member = false
	}
}

// IsMember reports membership (part of the gossip Tree interface).
func (r *Router) IsMember(g pkt.GroupID) bool {
	gs, ok := r.groups[g]
	return ok && gs.member
}

// NextHops exposes live mesh links to the gossip walk (part of the
// gossip Tree interface). Distances are unknown: ODMRP keeps no
// nearest-member state.
func (r *Router) NextHops(g pkt.GroupID) []gossip.NextHop {
	gs, ok := r.groups[g]
	if !ok {
		return nil
	}
	return gossip.LiveHops(gs.links, r.sched.Now())
}

// ErrNotMember reports SendData from a non-member.
var ErrNotMember = errors.New("odmrp: node is not a member of the group")

// SendData multicasts one payload. The first send activates the
// source's periodic Join Query refresh.
func (r *Router) SendData(g pkt.GroupID) (pkt.SeqKey, error) {
	gs := r.groupState(g)
	if !gs.member {
		return pkt.SeqKey{}, ErrNotMember
	}
	if gs.refreshTimer.IsZero() {
		r.refresh(g, gs) // on-demand: first data activates the mesh
	}
	gs.nextDataSeq++
	d := &pkt.Data{Group: g, Origin: r.stack.ID(), Seq: gs.nextDataSeq, PayloadLen: r.cfg.PayloadLen}
	gs.data.Add(d.Key())
	r.stats.DataSent++
	r.stack.SendBroadcast(pkt.NewPacket(r.stack.ID(), pkt.Broadcast, d))
	return d.Key(), nil
}

// refresh floods a Join Query and reschedules itself.
func (r *Router) refresh(g pkt.GroupID, gs *groupState) {
	gs.querySeq++
	r.stats.QueriesSent++
	q := &pkt.JoinQuery{Group: g, Source: r.stack.ID(), Seq: gs.querySeq, HopCount: 0}
	r.stack.SendBroadcast(pkt.NewPacket(r.stack.ID(), pkt.Broadcast, q))
	gs.refreshTimer = r.sched.After(r.cfg.RefreshInterval, func() { r.refresh(g, gs) })
}

func (r *Router) onJoinQuery(p *pkt.Packet, from pkt.NodeID) {
	q, ok := p.Body.(*pkt.JoinQuery)
	if !ok {
		return
	}
	if q.Source == r.stack.ID() {
		return // own flood echo
	}
	gs := r.groupState(q.Group)
	rt, have := gs.routes[q.Source]
	now := r.sched.Now()
	if have && rt.expires > now && !newerSeq(q.Seq, rt.seq) {
		return // stale or duplicate query
	}
	if !have {
		rt = &sourceRoute{}
		gs.routes[q.Source] = rt
	}
	rt.upstream = from
	rt.seq = q.Seq
	rt.hops = q.HopCount + 1
	rt.expires = now + r.cfg.MeshLifetime

	// Members answer: the reply walks back toward the source, enlisting
	// the forwarding group.
	if gs.member {
		r.stats.RepliesSent++
		rep := &pkt.JoinReply{Group: q.Group, Source: q.Source, Member: r.stack.ID(), Seq: q.Seq}
		r.stack.SendDirect(from, pkt.NewPacket(r.stack.ID(), from, rep))
		r.touchLink(gs, from)
	}

	// Reflood.
	if cp := r.stack.Rebroadcast(p, r.rng, r.cfg.FloodJitter); cp != nil {
		cp.Body.(*pkt.JoinQuery).HopCount = q.HopCount + 1
		r.stats.QueriesForwarded++
	}
}

func (r *Router) onJoinReply(p *pkt.Packet, from pkt.NodeID) {
	rep, ok := p.Body.(*pkt.JoinReply)
	if !ok {
		return
	}
	gs := r.groupState(rep.Group)
	now := r.sched.Now()
	r.touchLink(gs, from)

	if rep.Source == r.stack.ID() {
		return // reached the source: mesh branch complete
	}
	rt, have := gs.routes[rep.Source]
	if !have || rt.expires <= now {
		return // no fresh reverse path; the branch dies here
	}
	// Join the forwarding group and pass the reply upstream.
	gs.forwardingUntil = now + r.cfg.MeshLifetime
	r.touchLink(gs, rt.upstream)
	r.stats.RepliesForwarded++
	cp, okBody := rep.CloneBody().(*pkt.JoinReply)
	if !okBody {
		return
	}
	r.stack.SendDirect(rt.upstream, pkt.NewPacket(r.stack.ID(), rt.upstream, cp))
}

func (r *Router) onData(p *pkt.Packet, from pkt.NodeID) {
	d, ok := p.Body.(*pkt.Data)
	if !ok {
		return
	}
	gs, have := r.groups[d.Group]
	if !have {
		return
	}
	if !gs.data.Add(d.Key()) {
		r.stats.DataDuplicates++
		return
	}
	r.touchLink(gs, from)

	if gs.member {
		r.stats.DataDelivered++
		for _, fn := range r.subs {
			fn(d.Group, d, from)
		}
	}
	// Forwarding-group nodes (and members, which always forward in
	// ODMRP) rebroadcast within the mesh.
	forwards := gs.member || gs.forwardingUntil > r.sched.Now()
	if forwards && r.stack.Rebroadcast(p, r.rng, r.cfg.ForwardJitter) != nil {
		r.stats.DataForwarded++
	}
}

func (r *Router) touchLink(gs *groupState, id pkt.NodeID) {
	gs.links[id] = r.sched.Now() + r.cfg.MeshLifetime
}

func newerSeq(a, b uint32) bool { return int32(a-b) > 0 }
