// Package maodv implements the multicast operation of AODV (MAODV, paper
// reference [2], IETF draft v5 era) — the unreliable multicast routing
// protocol Anonymous Gossip runs over.
//
// Implemented behaviours (paper §3):
//
//   - per-group multicast route table: group leader, group sequence
//     number, hop count to leader, and the next-hop set with enabled
//     flags;
//   - joining via RREQ(J) floods answered by tree nodes, branch selection
//     ("shortest among the freshest"), and MACT activation;
//   - leaf pruning with cascade;
//   - link-break repair initiated by the downstream node only, using the
//     hop-count-to-leader RREQ extension so only closer nodes answer;
//   - partition handling: failed repairs elect a new leader (members) or
//     delegate leadership downstream via MACT(GL);
//   - group hello (GRPH) floods from the leader every 5 s, refreshing
//     group sequence numbers and resolving leader conflicts after merges;
//   - data forwarding along tree edges with duplicate suppression.
//
// The nearest-member field of paper §4.2 (AG's locality optimisation) is
// maintained in nearest.go.
//
// Known simplification (documented in DESIGN.md): tree merges after long
// partitions use a lower-ID-wins leader rule with a repair-style rejoin
// that keeps the loser's subtree intact. Transient tree loops that can
// arise during merges are rendered harmless by the data duplicate cache.
package maodv

import (
	"slices"
	"time"

	"anongossip/internal/aodv"
	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/runtime"
	"anongossip/internal/sim"
)

// Config holds the MAODV parameters.
type Config struct {
	// GroupHelloInterval is the leader's GRPH flood period (5 s in the
	// paper).
	GroupHelloInterval time.Duration
	// GroupHelloJitter randomises GRPH phase.
	GroupHelloJitter time.Duration
	// JoinReplyWait is how long a joiner collects RREPs before selecting
	// a branch; it doubles per retry.
	JoinReplyWait time.Duration
	// JoinRetries bounds join RREQ floods before declaring no tree
	// reachable.
	JoinRetries int
	// RepairRetries bounds repair RREQ floods before declaring a
	// partition.
	RepairRetries int
	// RREPPathLifetime is how long recorded reply paths stay usable for
	// MACT activation.
	RREPPathLifetime time.Duration
	// DataCacheSize bounds the per-group duplicate-suppression cache.
	DataCacheSize int
	// PayloadLen is the synthetic application payload size (64 bytes in
	// the paper).
	PayloadLen uint16
	// FloodJitter delays GRPH reflooding to break hidden-terminal
	// synchronisation (see aodv.Config.BroadcastJitter).
	FloodJitter time.Duration
	// ForwardJitter delays tree data re-broadcasts for the same reason;
	// it is kept smaller to limit per-hop latency.
	ForwardJitter time.Duration
}

// DefaultConfig returns the paper's MAODV configuration.
func DefaultConfig() Config {
	return Config{
		GroupHelloInterval: 5 * time.Second,
		GroupHelloJitter:   500 * time.Millisecond,
		JoinReplyWait:      400 * time.Millisecond,
		JoinRetries:        3,
		RepairRetries:      2,
		RREPPathLifetime:   3 * time.Second,
		DataCacheSize:      1024,
		PayloadLen:         64,
		FloodJitter:        10 * time.Millisecond,
		ForwardJitter:      3 * time.Millisecond,
	}
}

// Stats counts MAODV protocol activity at one node.
type Stats struct {
	JoinsStarted    uint64
	JoinsActivated  uint64
	RepairsStarted  uint64
	RepairsFailed   uint64
	LeaderElections uint64
	LeaderStepdowns uint64
	MACTsSent       uint64
	GRPHsSent       uint64
	DataSent        uint64
	DataDelivered   uint64
	DataForwarded   uint64
	DataDuplicates  uint64
	DataOffTree     uint64
	Prunes          uint64
	NearestSent     uint64
}

// nextHop is one entry of the multicast route table's next-hop list.
type nextHop struct {
	enabled  bool
	upstream bool
	// nearest is the learned distance to the closest member through this
	// link (paper §4.2).
	nearest uint8
	// lastAdvertised/advertised suppress unchanged Nearest updates.
	lastAdvertised uint8
	advertised     bool
}

// link is one tree link: a neighbour and its next-hop entry.
type link struct {
	id pkt.NodeID
	nextHop
}

// links is a group's next-hop list, kept sorted by node ID, so every
// walk runs in ID order without sorting and same-seed runs stay
// identical. A tree node has a handful of links, so lookups scan the
// list. Pointers returned by get and put are valid until the next put
// or remove.
type links []link

// search returns where id's entry is, or would be inserted, and whether
// it is there.
func (l links) search(id pkt.NodeID) (int, bool) {
	for i := range l {
		if l[i].id >= id {
			return i, l[i].id == id
		}
	}
	return len(l), false
}

// get returns id's entry, or nil.
func (l links) get(id pkt.NodeID) *nextHop {
	if i, ok := l.search(id); ok {
		return &l[i].nextHop
	}
	return nil
}

// put returns id's entry, first inserting one with an unknown
// nearest-member distance when there is none.
func (l *links) put(id pkt.NodeID) *nextHop {
	i, ok := l.search(id)
	if !ok {
		*l = slices.Insert(*l, i, link{id: id, nextHop: nextHop{nearest: pkt.NearestUnknown}})
	}
	return &(*l)[i].nextHop
}

// remove deletes id's entry, if any; the others keep their order.
func (l *links) remove(id pkt.NodeID) {
	if i, ok := l.search(id); ok {
		*l = slices.Delete(*l, i, i+1)
	}
}

// rrepPath remembers where a multicast RREP came from so a following
// MACT can climb toward the replier.
type rrepPath struct {
	upstream pkt.NodeID
	expires  sim.Time
}

// candidate is one join reply under consideration.
type candidate struct {
	from       pkt.NodeID
	groupSeq   uint32
	hops       uint8
	leaderHops uint8
	leader     pkt.NodeID
}

// joinState tracks an in-progress join or repair.
type joinState struct {
	rreqID   uint32
	repair   bool
	prevHops uint8
	retries  int
	timer    sim.Timer
	best     *candidate
}

// group is the per-group state (multicast route table entry plus
// protocol machinery).
type group struct {
	id     pkt.GroupID
	member bool
	inTree bool

	leader       pkt.NodeID
	leaderValid  bool
	groupSeq     uint32
	seqValid     bool
	hopsToLeader uint8

	next      links
	rrepPaths map[uint32]rrepPath
	join      *joinState
	grphTimer sim.Timer
	// grphFn is the group hello timer's callback, bound on first use.
	grphFn func()
	// grphSeen deduplicates GRPH floods per originating leader; a shared
	// counter would let a rogue high-sequence leader suppress the real
	// leader's floods during merges.
	grphSeen map[pkt.NodeID]uint32

	// data suppresses duplicate data packets; it stays empty, and costs
	// nothing, on a shell that only relays GRPH floods.
	data        node.SeqCache
	nextDataSeq uint32
}

// enabledCount returns the number of enabled next hops.
func (g *group) enabledCount() int {
	n := 0
	for i := range g.next {
		if g.next[i].enabled {
			n++
		}
	}
	return n
}

// Router is one node's MAODV entity.
type Router struct {
	cfg   Config
	stack *node.Stack
	sched runtime.Clock
	rng   *sim.RNG
	uni   *aodv.Router

	// groups is sorted by group ID; see group.
	groups []*group

	deliverSubs  []func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)
	evidenceSubs []func(g pkt.GroupID, member pkt.NodeID, hops uint8)

	// hops is NextHops' scratch (lent to the walk).
	hops []gossip.NextHop

	stats Stats
}

var _ aodv.MulticastHooks = (*Router)(nil)

// New builds a MAODV router on top of the node stack and its AODV
// unicast router, registering all multicast packet handlers.
// A non-positive DataCacheSize panics: the duplicate ring needs a slot.
func New(st *node.Stack, uni *aodv.Router, rng *sim.RNG, cfg Config) *Router {
	if cfg.DataCacheSize <= 0 {
		panic("maodv: DataCacheSize must be positive")
	}
	r := &Router{
		cfg:   cfg,
		stack: st,
		sched: st.Clock(),
		rng:   rng,
		uni:   uni,
	}
	uni.SetMulticastHooks(r)
	uni.OnLinkBreak(r.onLinkBreak)
	st.Handle(pkt.KindMACT, r.onMACT)
	st.Handle(pkt.KindGRPH, r.onGRPH)
	st.Handle(pkt.KindData, r.onData)
	st.Handle(pkt.KindNearest, r.onNearest)
	return r
}

// Stats returns a copy of the protocol counters.
func (r *Router) Stats() Stats { return r.stats }

// OnDeliver subscribes to multicast data deliveries at this member.
func (r *Router) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)) {
	r.deliverSubs = append(r.deliverSubs, fn)
}

// OnMemberEvidence subscribes to incidental knowledge that a node is a
// group member at the given hop distance (pkt.NearestUnknown when
// unknown). The gossip member cache is fed from this (paper §4.3: "this
// information itself is collected at no extra cost").
func (r *Router) OnMemberEvidence(fn func(g pkt.GroupID, member pkt.NodeID, hops uint8)) {
	r.evidenceSubs = append(r.evidenceSubs, fn)
}

// Delivered counts unique data packets delivered to the member.
func (r *Router) Delivered() uint64 { return r.stats.DataDelivered }

// IsMember reports group membership of this node.
func (r *Router) IsMember(gid pkt.GroupID) bool {
	g := r.group(gid)
	return g != nil && g.member
}

// InTree reports whether this node is currently part of the group's
// multicast tree (as member or router).
func (r *Router) InTree(gid pkt.GroupID) bool {
	g := r.group(gid)
	return g != nil && g.inTree
}

// Leader returns the current group leader, if known.
func (r *Router) Leader(gid pkt.GroupID) (pkt.NodeID, bool) {
	g := r.group(gid)
	if g == nil || !g.leaderValid {
		return 0, false
	}
	return g.leader, true
}

// NextHops returns the enabled tree links and their nearest-member
// values (paper §4.2: the walk needs nothing else) — the gossip Tree
// interface. The result is sorted by node ID, as the links are, so
// downstream random choices are reproducible, and lent: it is the
// router's scratch.
func (r *Router) NextHops(gid pkt.GroupID) []gossip.NextHop {
	g := r.group(gid)
	if g == nil {
		return nil
	}
	r.hops = r.hops[:0]
	for _, l := range g.next {
		if l.enabled {
			r.hops = append(r.hops, gossip.NextHop{ID: l.id, Nearest: l.nearest})
		}
	}
	return r.hops
}

// group returns the state of group gid, or nil when this node has none.
func (r *Router) group(gid pkt.GroupID) *group {
	if i, ok := r.groupIndex(gid); ok {
		return r.groups[i]
	}
	return nil
}

// groupIndex returns where gid's state is in r.groups, or would be
// inserted, and whether it is there. A node knows a handful of groups,
// so it scans.
func (r *Router) groupIndex(gid pkt.GroupID) (int, bool) {
	for i, g := range r.groups {
		if g.id >= gid {
			return i, g.id == gid
		}
	}
	return len(r.groups), false
}

// groupState returns existing state or creates a passive shell (used by
// nodes that merely relay GRPH floods or record RREP paths).
func (r *Router) groupState(gid pkt.GroupID) *group {
	i, ok := r.groupIndex(gid)
	if ok {
		return r.groups[i]
	}
	g := &group{
		id:           gid,
		hopsToLeader: pkt.LeaderHopsUnset,
		rrepPaths:    make(map[uint32]rrepPath),
		grphSeen:     make(map[pkt.NodeID]uint32),
		data:         node.NewSeqCache(r.cfg.DataCacheSize),
	}
	r.groups = slices.Insert(r.groups, i, g)
	return g
}

// Join makes this node a member of the group and begins tree attachment.
func (r *Router) Join(gid pkt.GroupID) {
	g := r.groupState(gid)
	if g.member {
		return
	}
	g.member = true
	r.nearestRecompute(g)
	if !g.inTree {
		r.startJoin(g, false)
	}
}

// Leave revokes membership. Leaf nodes prune themselves; interior nodes
// remain as pure routers (paper §3).
func (r *Router) Leave(gid pkt.GroupID) {
	g := r.group(gid)
	if g == nil || !g.member {
		return
	}
	g.member = false
	if g.join != nil {
		g.join.timer.Cancel()
		g.join = nil
	}
	if r.isLeader(g) {
		// Leadership requires membership; delegate before leaving.
		r.stopLeading(g)
		r.delegateLeadership(g)
	}
	r.maybePrune(g)
	r.nearestRecompute(g)
}

func (r *Router) isLeader(g *group) bool {
	return g.leaderValid && g.leader == r.stack.ID()
}

// --- join / repair ---

func (r *Router) startJoin(g *group, repair bool) {
	if g.join != nil {
		return // already in progress
	}
	js := &joinState{
		rreqID:   r.uni.AllocRREQID(),
		repair:   repair,
		prevHops: g.hopsToLeader,
	}
	g.join = js
	if repair {
		r.stats.RepairsStarted++
	} else {
		r.stats.JoinsStarted++
	}
	r.sendJoinRREQ(g, js)
}

func (r *Router) sendJoinRREQ(g *group, js *joinState) {
	r.uni.NoteOwnRREQ(js.rreqID)
	req := pkt.RREQ{
		Flags:      pkt.RREQJoin,
		ID:         js.rreqID,
		Dst:        uint32(g.id),
		Orig:       r.stack.ID(),
		OrigSeq:    r.uni.NextSeq(),
		LeaderHops: pkt.LeaderHopsUnset,
	}
	if g.seqValid {
		req.DstSeq = g.groupSeq
	} else {
		req.Flags |= pkt.RREQUnknownSeq
	}
	if js.repair {
		req.Flags |= pkt.RREQRepair
		req.LeaderHops = js.prevHops
		if req.LeaderHops == pkt.LeaderHopsUnset {
			req.LeaderHops = pkt.LeaderHopsUnset - 1 // permissive when unknown
		}
	}
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &req))

	wait := r.cfg.JoinReplyWait << uint(js.retries)
	js.timer = r.sched.After(wait, func() { r.onJoinWaitOver(g, js) })
}

// onJoinWaitOver selects the best reply (or retries/fails).
func (r *Router) onJoinWaitOver(g *group, js *joinState) {
	if g.join != js {
		return
	}
	if js.best != nil {
		r.activateBranch(g, js)
		return
	}
	if js.retries < r.retryBudget(js) {
		js.retries++
		js.rreqID = r.uni.AllocRREQID()
		r.sendJoinRREQ(g, js)
		return
	}
	// No tree reachable.
	g.join = nil
	if js.repair {
		r.repairFailed(g)
		return
	}
	if g.member {
		r.becomeLeader(g)
	}
}

func (r *Router) retryBudget(js *joinState) int {
	if js.repair {
		return r.cfg.RepairRetries
	}
	return r.cfg.JoinRetries
}

// activateBranch sends MACT(J) along the selected reply path.
func (r *Router) activateBranch(g *group, js *joinState) {
	best := js.best
	g.join = nil
	e := g.next.put(best.from)
	e.enabled = true
	e.upstream = true
	g.inTree = true
	g.leader = best.leader
	g.leaderValid = true
	if !g.seqValid || newerSeq(best.groupSeq, g.groupSeq) {
		g.groupSeq = best.groupSeq
		g.seqValid = true
	}
	// Depth = path to the replier (HopCount counts relays, so +1) plus
	// the replier's own distance to the leader.
	g.hopsToLeader = satAdd8(satAdd8(best.hops, 1), best.leaderHops)
	r.stats.JoinsActivated++

	flags := pkt.MACTJoin
	if g.member {
		flags |= pkt.MACTMemberOrigin
	}
	mact := pkt.MACT{
		Group:          g.id,
		Src:            r.stack.ID(),
		Flags:          flags,
		HopsFromOrigin: 0,
		RREQID:         js.rreqID,
	}
	r.stats.MACTsSent++
	r.stack.SendDirect(best.from, r.stack.NewPacket(best.from, &mact))
	r.nearestRecompute(g)
}

// satAdd8 adds with saturation below the unset sentinel.
func satAdd8(a, b uint8) uint8 {
	if a == pkt.LeaderHopsUnset || b == pkt.LeaderHopsUnset {
		return pkt.LeaderHopsUnset
	}
	s := uint16(a) + uint16(b)
	if s >= uint16(pkt.LeaderHopsUnset) {
		return pkt.LeaderHopsUnset - 1
	}
	return uint8(s)
}

func newerSeq(a, b uint32) bool { return int32(a-b) > 0 }

// --- aodv.MulticastHooks ---

// HandleJoinRREQ implements aodv.MulticastHooks: tree nodes answer join
// and repair requests with multicast RREPs.
func (r *Router) HandleJoinRREQ(req *pkt.RREQ, from pkt.NodeID) bool {
	g := r.group(pkt.GroupID(req.Dst))
	if g == nil || !g.inTree {
		return false
	}
	// Never answer a requester's flood from inside its own subtree: that
	// would graft a loop during partition merges.
	if g.leaderValid && g.leader == req.Orig {
		return false
	}
	// Freshness: our group sequence must be at least the requested one.
	if req.Flags&pkt.RREQUnknownSeq == 0 && g.seqValid && newerSeq(req.DstSeq, g.groupSeq) {
		return false
	}
	// Repair extension: only nodes strictly closer to the leader answer.
	if req.Repair() && !(g.hopsToLeader < req.LeaderHops) {
		return false
	}
	flags := pkt.RREPMulticast
	if g.member {
		flags |= pkt.RREPMember
	}
	rep := &pkt.RREP{
		Flags:      flags,
		HopCount:   0,
		Dst:        req.Dst,
		DstSeq:     g.groupSeq,
		Orig:       req.Orig,
		LifetimeMS: uint32(r.cfg.RREPPathLifetime / time.Millisecond),
		Leader:     g.leader,
		Replier:    r.stack.ID(),
		LeaderHops: g.hopsToLeader,
		RREQID:     req.ID,
	}
	return r.uni.RelayRREP(rep)
}

// ObserveMulticastRREP implements aodv.MulticastHooks: intermediate nodes
// record the activation path; the join originator collects candidates.
func (r *Router) ObserveMulticastRREP(rep *pkt.RREP, from pkt.NodeID, atOrigin bool) {
	g := r.groupState(pkt.GroupID(rep.Dst))
	if !atOrigin {
		// A path no MACT used expires unread; prune the dead ones here so
		// the table holds only live paths (onMACTJoin already treats an
		// expired entry as absent).
		now := r.sched.Now()
		for id, path := range g.rrepPaths {
			if path.expires <= now {
				delete(g.rrepPaths, id)
			}
		}
		g.rrepPaths[rep.RREQID] = rrepPath{upstream: from, expires: now + r.cfg.RREPPathLifetime}
		return
	}
	js := g.join
	if js == nil || rep.RREQID != js.rreqID {
		return
	}
	cand := &candidate{
		from:       from,
		groupSeq:   rep.DstSeq,
		hops:       rep.HopCount,
		leaderHops: rep.LeaderHops,
		leader:     rep.Leader,
	}
	if betterCandidate(cand, js.best) {
		js.best = cand
	}
	if rep.Member() {
		r.fireEvidence(g.id, rep.Replier, satAdd8(rep.HopCount, 1))
	}
}

// betterCandidate prefers the freshest group sequence, then the shortest
// path to the tree ("the shortest among the freshest routes", paper §3).
func betterCandidate(c, best *candidate) bool {
	if best == nil {
		return true
	}
	if c.groupSeq != best.groupSeq {
		return newerSeq(c.groupSeq, best.groupSeq)
	}
	return c.hops < best.hops
}

func (r *Router) fireEvidence(gid pkt.GroupID, member pkt.NodeID, hops uint8) {
	if member == r.stack.ID() {
		return
	}
	for _, fn := range r.evidenceSubs {
		fn(gid, member, hops)
	}
}
