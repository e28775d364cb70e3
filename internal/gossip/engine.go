// Package gossip implements Anonymous Gossip (AG), the paper's core
// contribution: a reliability layer that recovers multicast losses
// through gossip rounds without any knowledge of group membership.
//
// Each member runs a periodic round (one per second in the paper). A
// round either starts an anonymous walk — a gossip request that travels
// hop-by-hop along the multicast tree, biased toward branches whose
// nearest-member distance is small (paper §4.2), until some member
// accepts it — or, with probability 1-PAnon, unicasts the request
// directly to a member from the bounded member cache (paper §4.3). The
// accepting member looks up the requested sequence numbers in its
// bounded history table and unicasts the found packets back (pull
// exchange, paper §4.4).
//
// The engine's only coupling to the underlying multicast protocol is the
// Tree interface (enabled next hops + nearest-member values), mirroring
// the paper's claim that AG layers over any tree- or mesh-based
// multicast protocol.
package gossip

import (
	"cmp"
	"slices"
	"time"

	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/runtime"
	"anongossip/internal/sim"
	"anongossip/internal/table"
)

// NextHop is one walkable tree link.
type NextHop struct {
	ID pkt.NodeID
	// Nearest is the advertised hop distance to the closest member
	// through this link (pkt.NearestUnknown if not yet known).
	Nearest uint8
}

// Tree is the multicast-protocol interface AG walks over. The routers
// of package maodv (tree branches), odmrp (mesh links) and flood
// (recently heard relays) satisfy it themselves, and tests use
// synthetic topologies — the protocol independence the paper claims in
// §5.5.
type Tree interface {
	// NextHops returns the enabled tree links at this node for a group,
	// sorted by ID: the walk draws from the slice with the node's RNG.
	// The slice is lent, like a received packet: it is the tree's
	// scratch, read-only, and valid until the next NextHops call.
	NextHops(group pkt.GroupID) []NextHop
	// IsMember reports whether this node is an application-level member.
	IsMember(group pkt.GroupID) bool
}

// AppendLiveHops appends the walk substrate of a protocol whose links
// are soft state to dst: links maps each neighbour (NodeID.Uint64) to
// the expiry of its evidence. Expired entries are deleted; the rest are
// appended sorted by ID — not in the table's order — with unknown
// nearest-member distances, so the walk degrades to uniform choice.
func AppendLiveHops(dst []NextHop, links *table.Table[sim.Time], now sim.Time) []NextHop {
	n := len(dst)
	for id := range links.All() {
		dst = append(dst, NextHop{ID: pkt.NodeID(id), Nearest: pkt.NearestUnknown})
	}
	// The table cannot change under All: expired links go after it.
	live := dst[:n]
	for _, h := range dst[n:] {
		if expiry, _ := links.Get(h.ID.Uint64()); expiry <= now {
			links.Delete(h.ID.Uint64())
			continue
		}
		live = append(live, h)
	}
	SortHops(live[n:])
	return live
}

// SortHops orders walk links by node ID.
func SortHops(hops []NextHop) {
	slices.SortFunc(hops, func(a, b NextHop) int { return cmp.Compare(a.ID, b.ID) })
}

// Routes is the unicast substrate the pull replies travel on; AODV's
// Router satisfies it.
type Routes interface {
	// RouteHops returns the hop count of a valid route to dst, if known
	// (member cache bookkeeping).
	RouteHops(dst pkt.NodeID) (uint8, bool)
	// LearnRoute offers a route to dst through the neighbour via, hops
	// long, that a request from dst has just crossed. The substrate
	// keeps it only where it knows no better route.
	LearnRoute(dst, via pkt.NodeID, hops uint8)
}

// Fixed parameters of every engine: no experiment turns them.
const (
	// IntervalJitter randomises the first round's phase across members.
	IntervalJitter = 200 * time.Millisecond
	// LostBufferCap bounds lost-sequence numbers per gossip message (10
	// in the paper).
	LostBufferCap = 10
	// ExpectedCap bounds per-origin expected entries in a request.
	ExpectedCap = 4
	// MaxReplyMsgs bounds data packets per gossip reply.
	MaxReplyMsgs = 10
)

// Config holds the AG parameters a caller sets; defaults follow paper
// §5.1.
type Config struct {
	// Interval is the gossip round period (1 s in the paper).
	Interval time.Duration
	// PAnon is the probability a round uses an anonymous walk rather
	// than cached gossip (paper §4.3; the paper leaves the value open).
	PAnon float64
	// AcceptProb is the probability a member receiving a walk accepts it
	// instead of propagating (paper §4.1 "randomly decides").
	AcceptProb float64
	// LostTableCap bounds the lost table (200 in the paper).
	LostTableCap int
	// HistoryCap bounds the history table (100 in the paper).
	HistoryCap int
	// CacheCap bounds the member cache (10 in the paper).
	CacheCap int
	// WalkTTL bounds anonymous walk length in hops.
	WalkTTL int
}

// DefaultConfig returns the paper's gossip configuration.
func DefaultConfig() Config {
	return Config{
		Interval:     time.Second,
		PAnon:        0.7,
		AcceptProb:   0.5,
		LostTableCap: 200,
		HistoryCap:   100,
		CacheCap:     10,
		WalkTTL:      16,
	}
}

// Stats counts gossip activity at one node. Goodput (paper §5.5) is
// ReplyMsgsNew / (ReplyMsgsNew + ReplyMsgsDup).
type Stats struct {
	RoundsAnon      uint64
	RoundsCached    uint64
	RoundsSkipped   uint64
	WalksForwarded  uint64
	WalksAccepted   uint64
	WalksDropped    uint64
	RepliesSent     uint64
	RepliesReceived uint64
	// ReplyMsgsNew counts non-duplicate messages received through gossip
	// replies; ReplyMsgsDup counts duplicates (redundant traffic).
	ReplyMsgsNew uint64
	ReplyMsgsDup uint64
	// Delivered counts unique data packets seen (tree + gossip).
	Delivered uint64
}

// Goodput returns the percentage of useful gossip-reply messages, or 100
// when no reply traffic arrived (matching the paper's definition, where
// goodput is only plotted for members that received replies).
func (s Stats) Goodput() float64 {
	total := s.ReplyMsgsNew + s.ReplyMsgsDup
	if total == 0 {
		return 100
	}
	return 100 * float64(s.ReplyMsgsNew) / float64(total)
}

// DeliverFunc observes every unique data packet the member obtains;
// recovered marks packets that arrived through gossip replies rather
// than the multicast tree.
type DeliverFunc func(group pkt.GroupID, d *pkt.Data, recovered bool)

// groupState is the per-group gossip machinery of one member.
type groupState struct {
	id pkt.GroupID
	// expected maps an origin (NodeID.Uint64) to the next sequence
	// number the member expects from it.
	expected table.Table[uint32]
	lost     *lostTable
	history  *historyTable
	cache    *memberCache
	timer    sim.Timer
	// roundFn is the round timer's callback, bound once in Attach.
	roundFn func()
}

// Engine is one node's AG entity.
type Engine struct {
	cfg    Config
	stack  *node.Stack
	sched  runtime.Clock
	rng    *sim.RNG
	tree   Tree
	routes Routes

	groups map[pkt.GroupID]*groupState
	subs   []DeliverFunc

	// Scratch of the walk choice (cands, weights), the request's origin
	// list and the reply's history lookup: temporaries, reused by every
	// round and request, none of them reaching the wire. The request and
	// the reply themselves are built in packets of the node's stack
	// (node.Stack.NewPacket), whose lists keep their capacity from use
	// to use.
	cands   []NextHop
	weights []float64
	origins []pkt.Expect
	since   []pkt.Data

	stats Stats
}

// New builds a gossip engine bound to the node stack and a multicast
// tree provider, registering the gossip packet handlers.
func New(st *node.Stack, tree Tree, rng *sim.RNG, cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		stack:  st,
		sched:  st.Clock(),
		rng:    rng,
		tree:   tree,
		groups: make(map[pkt.GroupID]*groupState),
	}
	st.Handle(pkt.KindGossipReq, e.onRequest)
	st.Handle(pkt.KindGossipRep, e.onReply)
	return e
}

// SetRoutes wires the unicast substrate the replies travel on. Without
// one the engine learns no routes and caches hop counts the walk
// measured.
func (e *Engine) SetRoutes(r Routes) { e.routes = r }

// OnDeliver subscribes to unique data deliveries (tree and recovered).
func (e *Engine) OnDeliver(fn DeliverFunc) { e.subs = append(e.subs, fn) }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Attach starts gossip rounds for a group this node is a member of.
func (e *Engine) Attach(g pkt.GroupID) {
	if _, ok := e.groups[g]; ok {
		return
	}
	gs := &groupState{
		id:      g,
		lost:    newLostTable(e.cfg.LostTableCap),
		history: newHistoryTable(e.cfg.HistoryCap),
		cache:   newMemberCache(e.cfg.CacheCap),
	}
	gs.roundFn = func() { e.round(gs) }
	e.groups[g] = gs
	phase := e.cfg.Interval + e.rng.Duration(IntervalJitter)
	gs.timer = e.sched.After(phase, gs.roundFn)
}

// Detach stops gossip rounds for a group.
func (e *Engine) Detach(g pkt.GroupID) {
	gs, ok := e.groups[g]
	if !ok {
		return
	}
	gs.timer.Cancel()
	delete(e.groups, g)
}

// OnTreeData ingests a data packet delivered by the multicast protocol.
// Wire it to maodv.Router.OnDeliver.
func (e *Engine) OnTreeData(group pkt.GroupID, d *pkt.Data, _ pkt.NodeID) {
	gs, ok := e.groups[group]
	if !ok {
		return
	}
	e.ingest(gs, d, false)
}

// OnLocalData records a packet this member originated, so its history
// table can serve repairs for it.
func (e *Engine) OnLocalData(group pkt.GroupID, d pkt.Data) {
	gs, ok := e.groups[group]
	if !ok {
		return
	}
	gs.history.Add(d)
	if exp, _ := gs.expected.Get(d.Origin.Uint64()); d.Seq+1 > exp {
		gs.expected.Put(d.Origin.Uint64(), d.Seq+1)
	}
}

// OnMemberEvidence feeds incidental member sightings into the member
// cache. Wire it to maodv.Router.OnMemberEvidence.
func (e *Engine) OnMemberEvidence(group pkt.GroupID, member pkt.NodeID, hops uint8) {
	gs, ok := e.groups[group]
	if !ok || member == e.stack.ID() {
		return
	}
	gs.cache.Update(member, hops, e.sched.Now(), false)
}

// ingest is the single entry point for new data knowledge. It maintains
// expected sequence numbers and the lost table exactly as paper §4.4
// describes, and reports whether the packet was new. d stays the
// caller's: the history keeps a copy, the subscribers borrow d itself.
func (e *Engine) ingest(gs *groupState, d *pkt.Data, recovered bool) bool {
	key := d.Key()
	exp, seen := gs.expected.Get(d.Origin.Uint64())
	if !seen {
		exp = 1 // sequence numbers start at 1; earlier packets were missed
	}
	switch {
	case d.Seq >= exp:
		// Everything between the expectation and this packet is now
		// known-lost. The table keeps only the newest LostTableCap keys,
		// and none at or past exp is in it yet, so adding just those
		// leaves the table as adding the whole gap would — without a
		// stall of 2³² additions when a frame claims Seq 2³²−1.
		from := exp
		if n := uint32(max(e.cfg.LostTableCap, 0)); d.Seq-exp > n {
			from = d.Seq - n
		}
		for s := from; s < d.Seq; s++ {
			gs.lost.Add(pkt.SeqKey{Origin: d.Origin, Seq: s})
		}
		gs.expected.Put(d.Origin.Uint64(), d.Seq+1)
	case gs.lost.Contains(key):
		gs.lost.Remove(key)
	default:
		return false // duplicate
	}
	gs.history.Add(*d)
	e.stats.Delivered++
	for _, fn := range e.subs {
		fn(gs.id, d, recovered)
	}
	return true
}

// isDuplicate reports whether the member already holds the packet.
func (e *Engine) isDuplicate(gs *groupState, key pkt.SeqKey) bool {
	exp, seen := gs.expected.Get(key.Origin.Uint64())
	if !seen {
		return false
	}
	return key.Seq < exp && !gs.lost.Contains(key)
}

// --- rounds ---

func (e *Engine) round(gs *groupState) {
	defer func() {
		gs.timer = e.sched.After(e.cfg.Interval, gs.roundFn)
	}()
	if !e.tree.IsMember(gs.id) {
		e.stats.RoundsSkipped++
		return
	}
	// Paper §4.3: anonymous gossip with probability PAnon, cached gossip
	// otherwise (falling back to anonymous when the cache is empty).
	if !e.rng.Bool(e.cfg.PAnon) {
		if m, ok := gs.cache.Pick(e.rng); ok {
			gs.cache.MarkGossiped(m.addr, e.sched.Now())
			e.stats.RoundsCached++
			e.stack.SendUnicast(e.request(gs, m.addr, pkt.GossipCached))
			return
		}
	}
	// Anonymous walk: start at a weighted random tree neighbour.
	next, ok := e.pickNextHop(gs.id, 0)
	if !ok {
		e.stats.RoundsSkipped++ // not attached to the tree right now
		return
	}
	e.stats.RoundsAnon++
	e.stack.SendDirect(next, e.request(gs, next, 0))
}

// request builds the gossip message of paper §4.1 for dst, in a packet
// of the node's stack: lost buffer plus expected sequence numbers.
func (e *Engine) request(gs *groupState, dst pkt.NodeID, flags uint8) *pkt.Packet {
	p := e.stack.NewPacket(dst, &pkt.GossipReq{Group: gs.id, Initiator: e.stack.ID(), Flags: flags})
	req := p.Body.(*pkt.GossipReq)
	req.Lost = gs.lost.AppendRecent(req.Lost, LostBufferCap)
	e.origins = e.origins[:0]
	for origin, next := range gs.expected.All() {
		e.origins = append(e.origins, pkt.Expect{Origin: pkt.NodeID(origin), NextSeq: *next})
	}
	// Table order must not leak into the wire.
	slices.SortFunc(e.origins, func(a, b pkt.Expect) int { return cmp.Compare(a.Origin, b.Origin) })
	for _, ex := range e.origins {
		if len(req.Expected) >= ExpectedCap {
			break
		}
		if ex.Origin == e.stack.ID() {
			continue // nobody repairs our own transmissions to us
		}
		req.Expected = append(req.Expected, ex)
	}
	return p
}

// pickNextHop chooses a tree link, excluding a node, weighted toward
// small nearest-member distances (paper §4.2). exclude 0 means none.
func (e *Engine) pickNextHop(g pkt.GroupID, exclude pkt.NodeID) (pkt.NodeID, bool) {
	cands := e.cands[:0]
	for _, h := range e.tree.NextHops(g) {
		if h.ID != exclude {
			cands = append(cands, h)
		}
	}
	e.cands = cands
	if len(cands) == 0 {
		return 0, false
	}
	// Weight 1/(1+d): branches with nearer members are preferred, but
	// distant branches stay reachable — the paper wants gossip "locally
	// with a very high probability and with distant nodes occasionally".
	// Steeper weightings shorten walks further but over-concentrate
	// recovery on members that share loss correlation with the
	// initiator. A uniform walk delivers no more across Figs. 2–5
	// (ablation A1, DESIGN.md §9).
	e.weights = e.weights[:0]
	for _, h := range cands {
		d := float64(h.Nearest)
		if h.Nearest == pkt.NearestUnknown {
			d = 64 // effectively distant, still reachable
		}
		e.weights = append(e.weights, 1.0/(1+d))
	}
	idx := e.rng.WeightedIndex(e.weights)
	if idx < 0 {
		return 0, false
	}
	return cands[idx].ID, true
}

// --- request handling (walk + cached) ---

func (e *Engine) onRequest(p *pkt.Packet, from pkt.NodeID) {
	req, ok := p.Body.(*pkt.GossipReq)
	if !ok {
		return
	}
	// The request crossed a path from its initiator, so the pull reply
	// (paper §4.4) can retrace it instead of discovering a route. The
	// hop count is the walk's; a cached request has walked none, so its
	// route reads one hop whatever its length. The count orders the
	// member cache; an unsequenced route never wins on it.
	if e.routes != nil && req.Initiator != e.stack.ID() {
		e.routes.LearnRoute(req.Initiator, from, req.HopsTraveled+1)
	}
	if req.Cached() {
		// Unicast straight to us: we are the cached member; always
		// accept (paper §4.3).
		e.accept(req)
		return
	}
	// Anonymous walk (paper §4.1): members randomly accept or propagate;
	// pure routers always propagate.
	isMember := e.tree.IsMember(req.Group) && req.Initiator != e.stack.ID()
	ttlExpired := int(req.HopsTraveled) >= e.cfg.WalkTTL
	next, haveNext := e.pickNextHop(req.Group, from)

	if isMember && (ttlExpired || !haveNext || e.rng.Bool(e.cfg.AcceptProb)) {
		e.stats.WalksAccepted++
		e.accept(req)
		return
	}
	if !haveNext || ttlExpired {
		e.stats.WalksDropped++
		return
	}
	fwd := *req
	fwd.HopsTraveled++
	e.stats.WalksForwarded++
	e.stack.SendDirect(next, e.stack.NewPacket(next, &fwd))
}

// accept consumes an accepted gossip and unicasts the pull reply of
// paper §4.4: history lookups for the lost buffer, then packets at or
// past the initiator's expectations, then (for empty requests) the
// newest history as a bootstrap.
func (e *Engine) accept(req *pkt.GossipReq) {
	gs, ok := e.groups[req.Group]
	if !ok {
		return // not a member (e.g. stale cached-gossip target)
	}
	// The initiator is a member we now know about (paper §4.3).
	hops := req.HopsTraveled
	if e.routes != nil {
		if h, have := e.routes.RouteHops(req.Initiator); have {
			hops = h
		}
	}
	gs.cache.Update(req.Initiator, hops, e.sched.Now(), true)
	p := e.stack.NewPacket(req.Initiator, &pkt.GossipRep{
		Group:     req.Group,
		Responder: e.stack.ID(),
		WalkHops:  req.HopsTraveled,
	})
	rep := p.Body.(*pkt.GossipRep)
	for _, k := range req.Lost {
		if d, have := gs.history.Get(k); have {
			if !e.addReply(rep, d) {
				break
			}
		}
	}
	for _, ex := range req.Expected {
		e.since = gs.history.AppendSince(e.since[:0], ex.Origin, ex.NextSeq, MaxReplyMsgs)
		for _, d := range e.since {
			if !e.addReply(rep, d) {
				break
			}
		}
	}
	if len(req.Lost) == 0 && len(req.Expected) == 0 {
		e.since = gs.history.AppendLatest(e.since[:0], MaxReplyMsgs)
		for _, d := range e.since {
			if !e.addReply(rep, d) {
				break
			}
		}
	}

	e.stats.RepliesSent++
	e.stack.SendUnicast(p)
}

// addReply adds d to the reply unless it is already there, and reports
// whether the reply has room for more.
func (e *Engine) addReply(rep *pkt.GossipRep, d pkt.Data) bool {
	if len(rep.Msgs) >= MaxReplyMsgs {
		return false
	}
	// At most MaxReplyMsgs entries: a scan beats hashing.
	for i := range rep.Msgs {
		if rep.Msgs[i].Key() == d.Key() {
			return true
		}
	}
	rep.Msgs = append(rep.Msgs, d)
	return true
}

// --- reply handling ---

func (e *Engine) onReply(p *pkt.Packet, from pkt.NodeID) {
	rep, ok := p.Body.(*pkt.GossipRep)
	if !ok {
		return
	}
	gs, have := e.groups[rep.Group]
	if !have {
		return
	}
	e.stats.RepliesReceived++
	for i := range rep.Msgs {
		d := &rep.Msgs[i]
		if e.isDuplicate(gs, d.Key()) {
			e.stats.ReplyMsgsDup++
			continue
		}
		if e.ingest(gs, d, true) {
			e.stats.ReplyMsgsNew++
		} else {
			e.stats.ReplyMsgsDup++
		}
	}
	// Responder is a member: refresh the cache (paper §4.3).
	hops := rep.WalkHops
	if e.routes != nil {
		if h, have := e.routes.RouteHops(rep.Responder); have {
			hops = h
		}
	}
	gs.cache.Update(rep.Responder, hops, e.sched.Now(), true)
}
