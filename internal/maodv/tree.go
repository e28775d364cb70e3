package maodv

import (
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// --- MACT handling ---

func (r *Router) onMACT(p *pkt.Packet, from pkt.NodeID) {
	m, ok := p.Body.(*pkt.MACT)
	if !ok {
		return
	}
	g := r.group(m.Group)
	if g == nil {
		return
	}
	switch {
	case m.Join():
		r.onMACTJoin(g, m, from)
	case m.Prune():
		r.onMACTPrune(g, from)
	case m.GroupLeader():
		r.onMACTGroupLeader(g, from)
	}
}

// onMACTJoin activates the branch toward the sender and climbs toward the
// tree along the recorded reply path if this node is not attached yet.
func (r *Router) onMACTJoin(g *group, m *pkt.MACT, from pkt.NodeID) {
	wasInTree := g.inTree

	if !wasInTree {
		// We must attach ourselves upstream before accepting downstream
		// branches; otherwise reject the activation so the joiner retries.
		path, ok := g.rrepPaths[m.RREQID]
		if !ok || path.expires <= r.sched.Now() {
			r.sendPrune(g, from)
			return
		}
		delete(g.rrepPaths, m.RREQID)
		up := g.next.put(path.upstream)
		up.enabled = true
		up.upstream = true
		g.inTree = true

		fwd := *m
		fwd.HopsFromOrigin = satAdd8(m.HopsFromOrigin, 1)
		r.stack.SendDirect(path.upstream, r.stack.NewPacket(path.upstream, &fwd))
	}

	e := g.next.put(from)
	e.enabled = true
	e.upstream = false
	if m.MemberOrigin() {
		d := satAdd8(m.HopsFromOrigin, 1)
		if d < e.nearest {
			e.nearest = d
		}
	}
	r.nearestRecompute(g)
}

// onMACTPrune removes the sender's branch. Losing the upstream branch is
// equivalent to an upstream link break: the node repairs toward the tree
// (paper §3's downstream-repairs rule). A non-member leaf cascades out.
func (r *Router) onMACTPrune(g *group, from pkt.NodeID) {
	e := g.next.get(from)
	if e == nil {
		return
	}
	wasUpstream := e.enabled && e.upstream
	g.next.remove(from)
	r.nearestRecompute(g)

	if wasUpstream && g.inTree {
		// A pruned upstream usually means the branch head dissolved in a
		// merge; the old hop count is meaningless, so rejoin permissively.
		g.hopsToLeader = pkt.LeaderHopsUnset
		if g.join == nil {
			r.startJoin(g, true)
		}
		return
	}
	r.maybePrune(g)
	if g.member && g.inTree && g.enabledCount() == 0 && !r.isLeader(g) {
		g.inTree = false
		g.hopsToLeader = pkt.LeaderHopsUnset
		if g.join == nil {
			r.startJoin(g, false)
		}
	}
}

// onMACTGroupLeader handles delegated leader selection after a failed
// repair upstream: members take leadership, routers pass it downstream.
func (r *Router) onMACTGroupLeader(g *group, from pkt.NodeID) {
	if g.member {
		r.becomeLeader(g)
		return
	}
	r.delegateLeadershipExcept(g, from)
}

// sendPrune emits MACT(P) to a neighbour.
func (r *Router) sendPrune(g *group, to pkt.NodeID) {
	m := pkt.MACT{Group: g.id, Src: r.stack.ID(), Flags: pkt.MACTPrune}
	r.stack.SendDirect(to, r.stack.NewPacket(to, &m))
}

// maybePrune removes this node from the tree if it is a non-member leaf
// (paper §3: leaf routers cascade out of the tree).
func (r *Router) maybePrune(g *group) {
	if g.member || !g.inTree {
		return
	}
	n, only := 0, pkt.NodeID(0)
	for _, l := range g.next {
		if l.enabled {
			n, only = n+1, l.id
		}
	}
	switch n {
	case 1:
		r.sendPrune(g, only)
		fallthrough
	case 0:
		r.detachFromTree(g)
	}
}

// detachFromTree clears tree participation (membership is unaffected).
func (r *Router) detachFromTree(g *group) {
	g.inTree = false
	g.hopsToLeader = pkt.LeaderHopsUnset
	g.next = g.next[:0]
	if r.isLeader(g) {
		r.stopLeading(g)
	}
}

// --- leadership ---

func (r *Router) becomeLeader(g *group) {
	if r.isLeader(g) {
		return
	}
	g.leader = r.stack.ID()
	g.leaderValid = true
	g.hopsToLeader = 0
	g.inTree = true
	g.groupSeq++
	g.seqValid = true
	r.stats.LeaderElections++
	if g.grphTimer.IsZero() {
		r.scheduleGRPH(g)
	}
	r.nearestRecompute(g)
}

func (r *Router) stopLeading(g *group) {
	g.grphTimer.Cancel()
	g.grphTimer = sim.Timer{}
}

// delegateLeadership sends MACT(GL) down an arbitrary enabled branch.
func (r *Router) delegateLeadership(g *group) {
	r.delegateLeadershipExcept(g, r.stack.ID())
}

func (r *Router) delegateLeadershipExcept(g *group, except pkt.NodeID) {
	for _, l := range g.next {
		if !l.enabled || l.id == except {
			continue
		}
		m := pkt.MACT{Group: g.id, Src: r.stack.ID(), Flags: pkt.MACTGroupLeader}
		r.stack.SendDirect(l.id, r.stack.NewPacket(l.id, &m))
		return
	}
	// Nowhere to delegate: the fragment dissolves.
	r.detachFromTree(g)
}

// scheduleGRPH arms the leader's next periodic group hello.
func (r *Router) scheduleGRPH(g *group) {
	if g.grphFn == nil {
		g.grphFn = func() { r.grphTick(g) }
	}
	jitter := r.rng.Duration(r.cfg.GroupHelloJitter)
	g.grphTimer = r.sched.After(r.cfg.GroupHelloInterval+jitter, g.grphFn)
}

// grphTick floods a group hello while this node leads the group.
func (r *Router) grphTick(g *group) {
	if !r.isLeader(g) {
		g.grphTimer = sim.Timer{}
		return
	}
	g.groupSeq++
	g.grphSeen[r.stack.ID()] = g.groupSeq
	r.stats.GRPHsSent++
	grph := pkt.GRPH{Group: g.id, Leader: r.stack.ID(), GroupSeq: g.groupSeq, HopCount: 0}
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &grph))
	r.scheduleGRPH(g)
}

// onGRPH processes and refloods group hellos (network-wide flood with
// per-leader sequence-number duplicate suppression).
func (r *Router) onGRPH(p *pkt.Packet, from pkt.NodeID) {
	h, ok := p.Body.(*pkt.GRPH)
	if !ok {
		return
	}
	g := r.groupState(h.Group)
	if last, seen := g.grphSeen[h.Leader]; seen && !pkt.NewerSeq(h.GroupSeq, last) {
		return // duplicate or stale flood from this leader
	}
	g.grphSeen[h.Leader] = h.GroupSeq

	r.adoptGroupInfo(g, h, from)

	// Reflood, jittered against hidden-terminal synchronisation.
	if cp := r.stack.Rebroadcast(p, r.rng, r.cfg.FloodJitter); cp != nil {
		cp.Body.(*pkt.GRPH).HopCount = satAdd8(h.HopCount, 1)
	}
}

// adoptGroupInfo merges GRPH contents into local state. Leader conflicts
// after partition merges resolve deterministically: the lower node ID
// keeps the group everywhere; sequence numbers only order floods of the
// same leader (different leaders count independently, so comparing their
// sequences is meaningless).
func (r *Router) adoptGroupInfo(g *group, h *pkt.GRPH, from pkt.NodeID) {
	me := r.stack.ID()
	if r.isLeader(g) && h.Leader != me {
		if h.Leader < me {
			r.stepDown(g, h)
		}
		return
	}

	switch {
	case !g.leaderValid:
		g.leader = h.Leader
		g.leaderValid = true
		g.groupSeq = h.GroupSeq
		g.seqValid = true
	case h.Leader == g.leader:
		if pkt.NewerSeq(h.GroupSeq, g.groupSeq) || !g.seqValid {
			g.groupSeq = h.GroupSeq
			g.seqValid = true
		}
	case h.Leader < g.leader:
		// A better (lower-ID) leader exists: adopt it wholesale.
		g.leader = h.Leader
		g.leaderValid = true
		g.groupSeq = h.GroupSeq
		g.seqValid = true
	default:
		return // flood from a leader that will lose the merge: ignore
	}

	// Distance estimate: exact when heard over the upstream tree link,
	// an optimistic bound otherwise.
	if g.inTree {
		d := satAdd8(h.HopCount, 1)
		if e := g.next.get(from); e != nil && e.enabled && e.upstream {
			g.hopsToLeader = d
		} else if d < g.hopsToLeader {
			g.hopsToLeader = d
		}
	}
}

// stepDown dissolves this node's leadership in favour of a lower-ID
// leader: downstream branches are pruned (their heads re-attach to the
// winner's tree through their own repairs, which cannot re-graft onto
// this node's dissolved fragment), and this node rejoins as an ordinary
// member. Keeping the subtree intact instead is tempting but creates
// tree loops when a descendant answers the ex-leader's rejoin flood.
func (r *Router) stepDown(g *group, h *pkt.GRPH) {
	r.stats.LeaderStepdowns++
	r.stopLeading(g)
	for _, l := range g.next {
		if l.enabled {
			r.sendPrune(g, l.id)
		}
	}
	g.next = g.next[:0]
	g.inTree = false
	g.leader = h.Leader
	g.leaderValid = true
	g.groupSeq = h.GroupSeq
	g.seqValid = true
	g.hopsToLeader = pkt.LeaderHopsUnset
	if g.member && g.join == nil {
		r.startJoin(g, false)
	}
}

// --- link breakage and repair ---

// onLinkBreak reacts to a lost neighbour: downstream nodes repair their
// upstream link; upstream nodes drop the branch (and prune if they become
// non-member leaves). Paper §3: "only the downstream node D attempts to
// repair this link".
func (r *Router) onLinkBreak(n pkt.NodeID) {
	for _, g := range r.groups { // in group ID order
		e := g.next.get(n)
		if e == nil || !e.enabled {
			continue
		}
		wasUpstream := e.upstream
		g.next.remove(n)
		r.nearestRecompute(g)

		if wasUpstream {
			if g.join == nil {
				r.startJoin(g, true)
			}
			continue
		}
		// Lost a downstream branch.
		r.maybePrune(g)
		if g.member && g.inTree && g.enabledCount() == 0 && !r.isLeader(g) {
			// Isolated member: try to re-attach from scratch.
			g.inTree = false
			g.hopsToLeader = pkt.LeaderHopsUnset
			if g.join == nil {
				r.startJoin(g, false)
			}
		}
	}
}

// repairFailed handles a partition: a member becomes the new leader of
// the downstream fragment; a router delegates leadership downstream.
func (r *Router) repairFailed(g *group) {
	if g.member {
		r.becomeLeader(g)
		return
	}
	if g.enabledCount() == 0 {
		r.detachFromTree(g)
		return
	}
	r.delegateLeadership(g)
	// The router keeps serving its remaining branches; the delegated
	// member announces leadership via GRPH.
}
