package maodv

import (
	"anongossip/internal/pkt"
)

// Nearest-member maintenance (paper §4.2).
//
// Each tree router keeps, per next hop, the hop distance to the nearest
// group member reachable through that next hop. The value a node reports
// to next hop X is
//
//	1 + min( 0 if the node is itself a member,
//	         min over next hops Y != X of nearest[Y] )
//
// and a "modify message" (pkt.Nearest) is sent to X only when the value
// changes — the min-propagation the paper argues stays local. The values
// bias the anonymous gossip walk toward close members.

// nearestValueFor computes the distance-to-nearest-member this node
// advertises to next hop x.
func (r *Router) nearestValueFor(g *group, x pkt.NodeID) uint8 {
	best := pkt.NearestUnknown
	if g.member {
		best = 0
	}
	for i := range g.next {
		if l := &g.next[i]; l.id != x && l.enabled && l.nearest < best {
			best = l.nearest
		}
	}
	return satAdd8(best, 1)
}

// nearestRecompute advertises changed values to all enabled next hops.
// lastSent is tracked per link in the nextHop entry to suppress
// unchanged updates.
func (r *Router) nearestRecompute(g *group) {
	for i := range g.next {
		e := &g.next[i]
		if !e.enabled {
			continue
		}
		id := e.id
		v := r.nearestValueFor(g, id)
		if e.lastAdvertised == v && e.advertised {
			continue
		}
		e.lastAdvertised = v
		e.advertised = true
		r.stats.NearestSent++
		msg := pkt.Nearest{Group: g.id, Dist: v}
		r.stack.SendDirect(id, r.stack.NewPacket(id, &msg))
	}
}

// onNearest records a neighbour's advertised distance and propagates any
// resulting changes.
func (r *Router) onNearest(p *pkt.Packet, from pkt.NodeID) {
	n, ok := p.Body.(*pkt.Nearest)
	if !ok {
		return
	}
	g := r.group(n.Group)
	if g == nil {
		return
	}
	e := g.next.get(from)
	if e == nil || !e.enabled {
		return
	}
	if e.nearest == n.Dist {
		return
	}
	e.nearest = n.Dist
	r.nearestRecompute(g)
}
