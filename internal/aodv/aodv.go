// Package aodv implements the Ad-hoc On-demand Distance Vector unicast
// routing protocol (IETF draft v5 era, the paper's reference [11]) on top
// of the node stack. MAODV (package maodv) extends it through the
// MulticastHooks interface: join RREQs and multicast RREPs reuse AODV's
// flood/relay mechanics, exactly as the MAODV draft specifies.
//
// Implemented behaviours:
//
//   - route table with destination sequence numbers, hop counts and
//     lifetimes; freshness rules on every install;
//   - route discovery by expanding ring search (RFC 3561 §6.4): RREQs
//     of TTL 1, 3, 5 and 7, each waiting its ring traversal time, then
//     network-wide floods with doubling waits; packets wait in a
//     per-destination queue, and the discovery records are reused;
//   - intermediate-node RREP for fresh routes;
//   - RERR propagation on broken links;
//   - hello beacons (600 ms interval, allowed loss 4 in the paper's
//     configuration) driving neighbour tracking, plus immediate breakage
//     signals from MAC retry exhaustion. The unicast the MAC gave up on
//     is dropped; the next packet for its destination starts any new
//     discovery.
package aodv

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

// The paper pins helloInterval and allowedHelloLoss; the rest follow
// the draft's defaults scaled to the small terrain.
const (
	// helloInterval is the beacon period (600 ms in the paper).
	helloInterval = 600 * time.Millisecond
	// allowedHelloLoss consecutive missed hellos break a link (4 in the
	// paper).
	allowedHelloLoss = 4
	// activeRouteTimeout is the route lifetime, refreshed on use.
	activeRouteTimeout = 6 * time.Second
	// rreqRetries is the number of retries after the first RREQ.
	rreqRetries = 2
	// rreqTimeout is the first reply-wait; it doubles per retry.
	rreqTimeout = 500 * time.Millisecond
	// maxQueuedPerDest bounds the packets held while discovering a route.
	maxQueuedPerDest = 10
	// seenLifetime is how long RREQ (orig, id) pairs stay in the dedup
	// cache.
	seenLifetime = 5 * time.Second
	// helloJitter randomises beacon phase to avoid network-wide
	// synchronisation.
	helloJitter = 100 * time.Millisecond
)

// Config holds the one AODV parameter the benchmark harness reads.
type Config struct {
	// BroadcastJitter delays flood rebroadcasts by a uniform random
	// amount. Without it, sibling relays that cannot hear each other
	// (hidden terminals) rebroadcast a flood at the same instant and
	// collide at every common neighbour — the classic broadcast-storm
	// pathology every deployed AODV implementation jitters against.
	BroadcastJitter time.Duration
}

// DefaultConfig returns the paper's AODV configuration.
func DefaultConfig() Config {
	return Config{BroadcastJitter: 10 * time.Millisecond}
}

// MulticastHooks is implemented by the MAODV layer.
type MulticastHooks interface {
	// HandleJoinRREQ examines a join/repair RREQ. If the node can answer
	// (it is a suitable tree node), the hook sends the multicast RREP
	// itself and returns true; returning false lets the flood continue.
	HandleJoinRREQ(r *pkt.RREQ, from pkt.NodeID) bool
	// ObserveMulticastRREP runs at every node a multicast RREP visits
	// (including the join originator), letting MAODV record activation
	// paths. atOrigin reports whether this node is the RREP's requester.
	ObserveMulticastRREP(r *pkt.RREP, from pkt.NodeID, atOrigin bool)
}

// route is one routing table entry, stored by value under its
// destination.
type route struct {
	expires  sim.Time
	seq      uint32
	nextHop  pkt.NodeID
	hops     uint8
	seqValid bool
	valid    bool
}

// Expanding ring search (RFC 3561 §6.4): a discovery's first RREQ
// reaches ttlStart hops and each ring that times out widens the next by
// ttlIncrement, up to ttlThreshold; after that ring the discovery floods
// at pkt.DefaultTTL, once and rreqRetries times more. A ring waits its
// RING_TRAVERSAL_TIME (RFC 3561 §10), 2·NODE_TRAVERSAL_TIME·(ttl +
// timeoutBuffer), with rreqTimeout read as NET_TRAVERSAL_TIME,
// 2·NODE_TRAVERSAL_TIME·netDiameter.
const (
	ttlStart      = 1
	ttlIncrement  = 2
	ttlThreshold  = 7
	timeoutBuffer = 2
	netDiameter   = 35
)

// discovery tracks an outstanding route request. Records are reused:
// a finished one goes back to its Router's free list, keeping its queue
// storage and its timeout callback, bound once when the record is made.
type discovery struct {
	dst       pkt.NodeID
	ttl       uint8
	retries   int
	timer     sim.Timer
	queued    []*pkt.Packet
	timeoutFn func()
}

// Stats counts AODV protocol activity.
type Stats struct {
	// Discoveries counts route discoveries started; each sends up to
	// one RREQ per ring and per flood (RREQsOriginated).
	Discoveries     uint64
	RREQsOriginated uint64
	RREQsForwarded  uint64
	RREPsOriginated uint64
	RERRsSent       uint64
	HellosSent      uint64
	DiscoveryFails  uint64
	LinkBreaks      uint64
	PacketsDropped  uint64
}

// Router is one node's AODV entity.
type Router struct {
	cfg   Config
	stack *node.Stack
	sched runtime.Clock
	rng   *sim.RNG

	seq    uint32
	rreqID uint32

	// routes, seen and neighbors are read or written for every frame
	// the node hears. routes and neighbors are keyed by NodeID.Uint64;
	// neighbors holds when each was last heard. seen maps an RREQ's
	// seenKey to its expiry. seenLog lists the key of every write to
	// seen, oldest first, and seenMarks the log's length at each recent
	// sweep: every entry expires seenLifetime after it was written, so
	// the writes logged before a mark made at t have all expired by
	// t + seenLifetime, and a sweep finds them without walking seen.
	routes    table.Table[route]
	pending   map[pkt.NodeID]*discovery
	spareDisc []*discovery
	seen      table.Table[sim.Time]
	seenLog   []uint64
	seenMarks []seenMark
	neighbors table.Table[sim.Time]

	mc        MulticastHooks
	breakSubs []func(n pkt.NodeID)

	// dead, lost and unreach are scratch for sweepTick, breakLink and
	// onRERR: each is emptied at the start of every use.
	dead    []pkt.NodeID
	lost    []pkt.Unreachable
	unreach []pkt.Unreachable

	// helloFn and sweepFn are the periodic ticks, bound once: a method
	// value passed to After allocates on every re-arm.
	helloFn, sweepFn func()

	helloSeq uint32
	stats    Stats
}

// routeReserve is the route count a table makes room for up front.
const routeReserve = 24

// seenKey is the (originator, RREQ ID) pair that identifies a flood,
// packed into one table key.
func seenKey(orig pkt.NodeID, id uint32) uint64 {
	return pkt.SeqKey{Origin: orig, Seq: id}.Uint64()
}

// seenMark records the length of the seen log at a sweep.
type seenMark struct {
	at     sim.Time
	logLen int
}

var _ node.UnicastRouter = (*Router)(nil)

// New builds an AODV router bound to st and registers its handlers. Call
// Start to begin hello beaconing.
func New(st *node.Stack, rng *sim.RNG, cfg Config) *Router {
	r := &Router{
		cfg:     cfg,
		stack:   st,
		sched:   st.Clock(),
		rng:     rng,
		pending: make(map[pkt.NodeID]*discovery),
		// A mark is kept for each sweep within seenLifetime, and sweeps
		// run every helloInterval.
		seenMarks: make([]seenMark, 0, int(seenLifetime/helloInterval)+2),
	}
	// Every flood a node relays leaves it a reverse route to the
	// flood's originator, so its table soon holds a route to most of
	// the nodes around it: room for routeReserve skips the first resizes.
	r.routes.Reserve(routeReserve)
	r.helloFn, r.sweepFn = r.helloTick, r.sweepTick
	st.SetRouter(r)
	st.Handle(pkt.KindHello, r.onHello)
	st.Handle(pkt.KindRREQ, r.onRREQ)
	st.Handle(pkt.KindRREP, r.onRREP)
	st.Handle(pkt.KindRERR, r.onRERR)
	st.OnLinkFailure(r.breakLink)
	return r
}

// Start launches periodic hello beaconing and cache sweeping.
func (r *Router) Start() {
	r.sched.After(r.rng.Duration(helloJitter), r.helloFn)
	r.sched.After(helloInterval, r.sweepFn)
}

// SetMulticastHooks installs the MAODV extension.
func (r *Router) SetMulticastHooks(mc MulticastHooks) { r.mc = mc }

// OnLinkBreak subscribes to broken-neighbour events (hello loss or MAC
// failure). MAODV uses this to trigger tree repair.
func (r *Router) OnLinkBreak(fn func(n pkt.NodeID)) {
	r.breakSubs = append(r.breakSubs, fn)
}

// Stats returns a copy of the protocol counters.
func (r *Router) Stats() Stats { return r.stats }

// --- node.UnicastRouter ---

// NextHop implements node.UnicastRouter, refreshing the lifetime of used
// routes.
func (r *Router) NextHop(dst pkt.NodeID) (pkt.NodeID, bool) {
	rt := r.routes.Ref(dst.Uint64())
	if rt == nil || !rt.valid || rt.expires <= r.sched.Now() {
		return 0, false
	}
	rt.expires = r.sched.Now() + activeRouteTimeout
	return rt.nextHop, true
}

// NeighborHeard implements node.UnicastRouter: every frame heard from n
// refreshes its liveness.
func (r *Router) NeighborHeard(n pkt.NodeID) {
	r.neighbors.Put(n.Uint64(), r.sched.Now())
}

// QueueForRoute implements node.UnicastRouter: it parks the packet and
// drives a route discovery for its destination.
func (r *Router) QueueForRoute(p *pkt.Packet) {
	d, running := r.pending[p.Dst]
	if !running {
		d = r.newDiscovery(p.Dst)
		r.pending[p.Dst] = d
		r.stats.Discoveries++
		r.sendRREQ(d)
	}
	if len(d.queued) >= maxQueuedPerDest {
		r.stats.PacketsDropped++
		return
	}
	d.queued = append(d.queued, p)
}

// --- identifiers shared with MAODV ---

// AllocRREQID returns a fresh route-request ID.
func (r *Router) AllocRREQID() uint32 {
	r.rreqID++
	return r.rreqID
}

// NextSeq increments and returns the node's own sequence number.
func (r *Router) NextSeq() uint32 {
	r.seq++
	return r.seq
}

// NoteOwnRREQ records a locally originated RREQ (orig, id) so the node
// ignores echoes of its own flood.
func (r *Router) NoteOwnRREQ(id uint32) {
	r.noteSeen(seenKey(r.stack.ID(), id))
}

// noteSeen records an RREQ flood until seenLifetime from now.
func (r *Router) noteSeen(k uint64) {
	r.seen.Put(k, r.sched.Now()+seenLifetime)
	r.seenLog = append(r.seenLog, k)
}

// RouteHops returns the hop count of a valid route to dst, if known.
func (r *Router) RouteHops(dst pkt.NodeID) (uint8, bool) {
	rt, ok := r.routes.Get(dst.Uint64())
	if !ok || !rt.valid || rt.expires <= r.sched.Now() {
		return 0, false
	}
	return rt.hops, true
}

// LearnRoute installs a route to dst through the neighbour via, hops
// long, taken from a packet that dst originated and via relayed, the
// way an RREQ leaves a reverse route (RFC 3561 §6.5). It carries no
// sequence number, so the freshness rules let it fill only a missing
// or expired entry, and any sequenced route replaces it. Like every
// install, it sends what a pending discovery for dst holds.
func (r *Router) LearnRoute(dst, via pkt.NodeID, hops uint8) {
	r.installRoute(dst, 0, false, hops, via)
}

// RelayRREP addresses a copy of rrep to the next hop on the reverse path
// toward its requester and transmits it; rrep stays the caller's. It
// reports false when no reverse route exists. MAODV uses it to emit join
// replies; AODV uses it internally.
func (r *Router) RelayRREP(rrep *pkt.RREP) bool {
	if rrep.Orig == r.stack.ID() {
		return false
	}
	next, ok := r.NextHop(rrep.Orig)
	if !ok {
		return false
	}
	r.stack.SendDirect(next, r.stack.NewPacket(next, rrep))
	return true
}

// --- route table maintenance ---

// installRoute applies AODV's freshness rules: accept when the entry is
// missing/invalid, the sequence number is newer, or equal with a shorter
// hop count.
func (r *Router) installRoute(dst pkt.NodeID, seq uint32, seqValid bool, hops uint8, nextHop pkt.NodeID) {
	if dst == r.stack.ID() {
		return
	}
	now := r.sched.Now()
	rt, _ := r.routes.Insert(dst.Uint64()) // a new entry is invalid, so stale
	stale := !rt.valid || rt.expires <= now
	fresher := seqValid && (!rt.seqValid || pkt.NewerSeq(seq, rt.seq) ||
		(seq == rt.seq && hops < rt.hops))
	if !stale && !fresher {
		return
	}
	rt.seq = seq
	rt.seqValid = seqValid
	rt.hops = hops
	rt.nextHop = nextHop
	rt.expires = now + activeRouteTimeout
	rt.valid = true
	r.completeDiscovery(dst)
}

func (r *Router) completeDiscovery(dst pkt.NodeID) {
	d, ok := r.pending[dst]
	if !ok {
		return
	}
	delete(r.pending, dst)
	d.timer.Cancel()
	for _, p := range d.queued {
		r.stack.Forward(p, false)
	}
	r.freeDiscovery(d)
}

// --- discovery ---

// newDiscovery returns a record for a discovery of dst at its first
// ring, reusing a finished one when there is one.
func (r *Router) newDiscovery(dst pkt.NodeID) *discovery {
	var d *discovery
	if n := len(r.spareDisc); n > 0 {
		d, r.spareDisc = r.spareDisc[n-1], r.spareDisc[:n-1]
	} else {
		d = &discovery{}
		d.timeoutFn = func() { r.onDiscoveryTimeout(d) }
	}
	d.dst, d.ttl, d.retries = dst, ttlStart, 0
	return d
}

// freeDiscovery returns a finished record, no longer pending, to the
// free list.
func (r *Router) freeDiscovery(d *discovery) {
	clear(d.queued)
	d.queued = d.queued[:0]
	r.spareDisc = append(r.spareDisc, d)
}

func (r *Router) sendRREQ(d *discovery) {
	id := r.AllocRREQID()
	r.NoteOwnRREQ(id)
	req := pkt.RREQ{
		ID:      id,
		Dst:     uint32(d.dst),
		Orig:    r.stack.ID(),
		OrigSeq: r.NextSeq(),

		LeaderHops: pkt.LeaderHopsUnset,
	}
	if rt, ok := r.routes.Get(d.dst.Uint64()); ok && rt.seqValid {
		req.DstSeq = rt.seq
	} else {
		req.Flags |= pkt.RREQUnknownSeq
	}
	r.stats.RREQsOriginated++
	p := r.stack.NewPacket(pkt.Broadcast, &req)
	p.TTL = d.ttl
	r.stack.SendBroadcast(p)

	wait := rreqTimeout << uint(d.retries)
	if d.ttl < pkt.DefaultTTL {
		wait = rreqTimeout * time.Duration(d.ttl+timeoutBuffer) / netDiameter
	}
	d.timer = r.sched.After(wait, d.timeoutFn)
}

// onDiscoveryTimeout widens the ring, retries the flood, or gives up.
func (r *Router) onDiscoveryTimeout(d *discovery) {
	if r.pending[d.dst] != d {
		return
	}
	switch {
	case d.ttl < ttlThreshold:
		d.ttl += ttlIncrement
	case d.ttl < pkt.DefaultTTL:
		d.ttl = pkt.DefaultTTL
	case d.retries < rreqRetries:
		d.retries++
	default:
		delete(r.pending, d.dst)
		r.stats.DiscoveryFails++
		r.stats.PacketsDropped += uint64(len(d.queued))
		r.freeDiscovery(d)
		return
	}
	r.sendRREQ(d)
}

// --- packet handlers ---

func (r *Router) onHello(p *pkt.Packet, from pkt.NodeID) {
	// Liveness is tracked by NeighborHeard for every frame; the hello
	// only installs/refreshes the 1-hop route.
	r.installRoute(from, 0, false, 1, from)
}

func (r *Router) onRREQ(p *pkt.Packet, from pkt.NodeID) {
	req, ok := p.Body.(*pkt.RREQ)
	if !ok {
		return
	}
	me := r.stack.ID()
	if req.Orig == me {
		return // echo of our own flood
	}
	key := seenKey(req.Orig, req.ID)
	now := r.sched.Now()
	if exp, dup := r.seen.Get(key); dup && exp > now {
		return
	}
	r.noteSeen(key)

	hops := req.HopCount + 1
	// Reverse route toward the originator.
	r.installRoute(req.Orig, req.OrigSeq, true, hops, from)
	// And a 1-hop route to the relay.
	r.installRoute(from, 0, false, 1, from)

	if req.Join() {
		if r.mc != nil && r.mc.HandleJoinRREQ(req, from) {
			return // answered by the multicast layer
		}
		r.rebroadcastRREQ(p, req)
		return
	}

	dst := pkt.NodeID(req.Dst)
	if dst == me {
		// We are the destination: reply with our own sequence number.
		if req.Flags&pkt.RREQUnknownSeq == 0 && pkt.NewerSeq(req.DstSeq, r.seq) {
			r.seq = req.DstSeq
		}
		r.NextSeq()
		r.sendRREP(&pkt.RREP{
			Dst:        req.Dst,
			DstSeq:     r.seq,
			Orig:       req.Orig,
			HopCount:   0,
			LifetimeMS: uint32(activeRouteTimeout / time.Millisecond),
			RREQID:     req.ID,
		})
		return
	}
	// Intermediate reply when we hold a fresh-enough route.
	if rt, have := r.routes.Get(dst.Uint64()); have && rt.valid && rt.expires > now && rt.seqValid &&
		(req.Flags&pkt.RREQUnknownSeq != 0 || !pkt.NewerSeq(req.DstSeq, rt.seq)) {
		r.sendRREP(&pkt.RREP{
			Dst:        req.Dst,
			DstSeq:     rt.seq,
			Orig:       req.Orig,
			HopCount:   rt.hops,
			LifetimeMS: uint32((rt.expires - now) / time.Millisecond),
			RREQID:     req.ID,
		})
		return
	}
	r.rebroadcastRREQ(p, req)
}

func (r *Router) rebroadcastRREQ(p *pkt.Packet, req *pkt.RREQ) {
	if cp := r.stack.Rebroadcast(p, r.rng, r.cfg.BroadcastJitter); cp != nil {
		cp.Body.(*pkt.RREQ).HopCount = req.HopCount + 1
		r.stats.RREQsForwarded++
	}
}

// sendRREP emits a reply we originate (as destination or intermediate).
func (r *Router) sendRREP(rrep *pkt.RREP) {
	r.stats.RREPsOriginated++
	if !r.RelayRREP(rrep) {
		// No reverse route: the requester is unreachable; drop.
		r.stats.PacketsDropped++
	}
}

func (r *Router) onRREP(p *pkt.Packet, from pkt.NodeID) {
	rep, ok := p.Body.(*pkt.RREP)
	if !ok {
		return
	}
	me := r.stack.ID()
	r.installRoute(from, 0, false, 1, from)

	atOrigin := rep.Orig == me
	if rep.Multicast() {
		if r.mc != nil {
			r.mc.ObserveMulticastRREP(rep, from, atOrigin)
		}
	} else {
		// Forward route toward the replied destination.
		r.installRoute(pkt.NodeID(rep.Dst), rep.DstSeq, true, rep.HopCount+1, from)
	}
	if atOrigin {
		return
	}
	// Relay along the reverse path toward the requester.
	fwd := *rep
	fwd.HopCount++
	if !r.RelayRREP(&fwd) {
		r.stats.PacketsDropped++
	}
}

func (r *Router) onRERR(p *pkt.Packet, from pkt.NodeID) {
	rerr, ok := p.Body.(*pkt.RERR)
	if !ok {
		return
	}
	r.unreach = r.unreach[:0]
	for _, u := range rerr.Dests {
		rt := r.routes.Ref(u.Addr.Uint64())
		if rt == nil || !rt.valid || rt.nextHop != from {
			continue
		}
		rt.valid = false
		rt.seq = u.Seq
		r.unreach = append(r.unreach, u)
	}
	if len(r.unreach) > 0 && p.TTL > 1 {
		r.stats.RERRsSent++
		out := r.stack.NewPacket(pkt.Broadcast, &pkt.RERR{Dests: r.unreach})
		out.TTL = p.TTL - 1
		r.stack.SendBroadcast(out)
	}
}

// --- link breakage ---

// breakLink removes neighbour state, invalidates dependent routes,
// propagates RERR and notifies subscribers. It runs when n's hellos stop
// and when the MAC gives up on a unicast to n; that packet is dropped,
// not re-routed from here (a lost gossip reply costs one round).
func (r *Router) breakLink(n pkt.NodeID) {
	r.neighbors.Delete(n.Uint64())
	r.stats.LinkBreaks++

	r.lost = r.lost[:0]
	for dst, rt := range r.routes.All() {
		if rt.valid && rt.nextHop == n {
			rt.valid = false
			rt.seq++
			r.lost = append(r.lost, pkt.Unreachable{Addr: pkt.NodeID(dst), Seq: rt.seq})
		}
	}
	// The RERR lists destinations in ascending order, not table order.
	slices.SortFunc(r.lost, func(a, b pkt.Unreachable) int { return cmp.Compare(a.Addr, b.Addr) })
	if len(r.lost) > 0 {
		r.stats.RERRsSent++
		r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &pkt.RERR{Dests: r.lost}))
	}
	for _, fn := range r.breakSubs {
		fn(n)
	}
}

// --- periodic timers ---

func (r *Router) helloTick() {
	r.helloSeq++
	r.stats.HellosSent++
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &pkt.Hello{Seq: r.helloSeq}))
	jitter := r.rng.DurationRange(-helloJitter/2, helloJitter/2)
	r.sched.After(helloInterval+jitter, r.helloFn)
}

func (r *Router) sweepTick() {
	now := r.sched.Now()
	const deadline = allowedHelloLoss * helloInterval
	r.dead = r.dead[:0]
	for n, lastHeard := range r.neighbors.All() {
		if now-*lastHeard > deadline {
			r.dead = append(r.dead, pkt.NodeID(n))
		}
	}
	slices.Sort(r.dead)
	for _, n := range r.dead {
		r.breakLink(n)
	}
	// onRREQ already ignores an expired entry; dropping them here only
	// bounds the table, so an entry may outlive its expiry by a sweep
	// period. A key rewritten after a logged write has a later write
	// still logged, so the table's own expiry decides.
	cut, m := 0, 0
	for ; m < len(r.seenMarks) && r.seenMarks[m].at+seenLifetime <= now; m++ {
		cut = r.seenMarks[m].logLen
	}
	for _, k := range r.seenLog[:cut] {
		if exp, _ := r.seen.Get(k); exp <= now {
			r.seen.Delete(k)
		}
	}
	r.seenLog = append(r.seenLog[:0], r.seenLog[cut:]...)
	r.seenMarks = append(r.seenMarks[:0], r.seenMarks[m:]...)
	for i := range r.seenMarks {
		r.seenMarks[i].logLen -= cut
	}
	r.seenMarks = append(r.seenMarks, seenMark{at: now, logLen: len(r.seenLog)})
	r.sched.After(helloInterval, r.sweepFn)
}
