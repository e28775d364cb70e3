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
	"anongossip/internal/table"
)

// Literature-standard ODMRP parameters.
const (
	// refreshInterval is the Join Query flood period of an active
	// source (3 s in the ODMRP literature).
	refreshInterval = 3 * time.Second
	// meshLifetime is how long forwarding-group membership and mesh
	// links survive without refresh (typically 2–3 refresh periods).
	meshLifetime = 9 * time.Second
	// floodJitter delays query refloods (hidden-terminal mitigation).
	floodJitter = 10 * time.Millisecond
	// forwardJitter delays mesh data rebroadcasts.
	forwardJitter = 3 * time.Millisecond
	// cacheSize bounds the duplicate caches.
	cacheSize = 1024
	// payloadLen is the synthetic application payload size.
	payloadLen = 64
)

// Stats counts ODMRP activity at one node.
type Stats struct {
	QueriesSent      uint64
	QueriesForwarded uint64
	RepliesSent      uint64
	RepliesForwarded uint64
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
	links table.Table[sim.Time] // keyed by NodeID.Uint64

	data node.SeqCache

	refreshTimer sim.Timer
	// refreshFn is the refresh timer's callback, bound on the first
	// refresh.
	refreshFn   func()
	querySeq    uint32
	nextDataSeq uint32
}

// Router is one node's ODMRP entity.
type Router struct {
	stack *node.Stack
	sched runtime.Clock
	rng   *sim.RNG

	groups map[pkt.GroupID]*groupState
	subs   []func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)
	// hops is NextHops' scratch, lent to the walk.
	hops  []gossip.NextHop
	stats Stats
}

// New builds an ODMRP router bound to the node stack.
func New(st *node.Stack, rng *sim.RNG) *Router {
	r := &Router{
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

// Delivered counts unique data packets delivered to the member.
func (r *Router) Delivered() uint64 { return r.stats.DataDelivered }

func (r *Router) groupState(g pkt.GroupID) *groupState {
	gs, ok := r.groups[g]
	if !ok {
		gs = &groupState{
			routes: make(map[pkt.NodeID]*sourceRoute),
			data:   node.NewSeqCache(cacheSize),
		}
		r.groups[g] = gs
	}
	return gs
}

// Join registers group membership; members answer queries and deliver.
func (r *Router) Join(g pkt.GroupID) { r.groupState(g).member = true }

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
	r.hops = gossip.AppendLiveHops(r.hops[:0], &gs.links, r.sched.Now())
	return r.hops
}

// ErrNotMember reports SendData from a non-member.
var ErrNotMember = errors.New("odmrp: node is not a member of the group")

// SendData multicasts one payload and returns the data it sent. The
// first send activates the source's periodic Join Query refresh.
func (r *Router) SendData(g pkt.GroupID) (pkt.Data, error) {
	gs := r.groupState(g)
	if !gs.member {
		return pkt.Data{}, ErrNotMember
	}
	if gs.refreshTimer.IsZero() {
		r.refresh(g, gs) // on-demand: first data activates the mesh
	}
	gs.nextDataSeq++
	d := pkt.Data{Group: g, Origin: r.stack.ID(), Seq: gs.nextDataSeq, PayloadLen: payloadLen}
	gs.data.Add(d.Key())
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &d))
	return d, nil
}

// refresh floods a Join Query and reschedules itself.
func (r *Router) refresh(g pkt.GroupID, gs *groupState) {
	gs.querySeq++
	r.stats.QueriesSent++
	q := pkt.JoinQuery{Group: g, Source: r.stack.ID(), Seq: gs.querySeq, HopCount: 0}
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &q))
	if gs.refreshFn == nil {
		gs.refreshFn = func() { r.refresh(g, gs) }
	}
	gs.refreshTimer = r.sched.After(refreshInterval, gs.refreshFn)
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
	if have && rt.expires > now && !pkt.NewerSeq(q.Seq, rt.seq) {
		return // stale or duplicate query
	}
	if !have {
		rt = &sourceRoute{}
		gs.routes[q.Source] = rt
	}
	rt.upstream = from
	rt.seq = q.Seq
	rt.hops = q.HopCount + 1
	rt.expires = now + meshLifetime

	// Members answer: the reply walks back toward the source, enlisting
	// the forwarding group.
	if gs.member {
		r.stats.RepliesSent++
		rep := pkt.JoinReply{Group: q.Group, Source: q.Source, Member: r.stack.ID(), Seq: q.Seq}
		r.stack.SendDirect(from, r.stack.NewPacket(from, &rep))
		r.touchLink(gs, from)
	}

	// Reflood.
	if cp := r.stack.Rebroadcast(p, r.rng, floodJitter); cp != nil {
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
	gs.forwardingUntil = now + meshLifetime
	r.touchLink(gs, rt.upstream)
	r.stats.RepliesForwarded++
	r.stack.SendDirect(rt.upstream, r.stack.NewPacket(rt.upstream, rep))
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
	if forwards && r.stack.Rebroadcast(p, r.rng, forwardJitter) != nil {
		r.stats.DataForwarded++
	}
}

func (r *Router) touchLink(gs *groupState, id pkt.NodeID) {
	gs.links.Put(id.Uint64(), r.sched.Now()+meshLifetime)
}
