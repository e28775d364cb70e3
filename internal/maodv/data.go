package maodv

import (
	"errors"

	"anongossip/internal/pkt"
)

// ErrNotMember reports a SendData call from a non-member node.
var ErrNotMember = errors.New("maodv: node is not a member of the group")

// SendData multicasts one application payload to the group and returns
// its sequence identity. The packet is transmitted as a link-layer
// broadcast accepted and re-forwarded only by tree neighbours, as in
// MAODV. Delivery is unreliable by design — Anonymous Gossip recovers the
// losses.
func (r *Router) SendData(gid pkt.GroupID) (pkt.SeqKey, error) {
	g := r.group(gid)
	if g == nil || !g.member {
		return pkt.SeqKey{}, ErrNotMember
	}
	g.nextDataSeq++
	d := pkt.Data{
		Group:      gid,
		Origin:     r.stack.ID(),
		Seq:        g.nextDataSeq,
		PayloadLen: r.cfg.PayloadLen,
	}
	key := d.Key()
	g.data.Add(key)
	r.stats.DataSent++
	r.stack.SendBroadcast(r.stack.NewPacket(pkt.Broadcast, &d))
	return key, nil
}

// onData accepts multicast data arriving over a tree link, delivers it to
// a member application, and re-broadcasts it down the remaining branches.
func (r *Router) onData(p *pkt.Packet, from pkt.NodeID) {
	d, ok := p.Body.(*pkt.Data)
	if !ok {
		return
	}
	g := r.group(d.Group)
	if g == nil || !g.inTree {
		return
	}
	// Tree discipline: accept only from an enabled next hop; anything
	// else is an off-tree copy of the broadcast.
	if e := g.next.get(from); e == nil || !e.enabled {
		r.stats.DataOffTree++
		return
	}
	if !g.data.Add(d.Key()) {
		r.stats.DataDuplicates++
		return
	}

	if g.member {
		r.stats.DataDelivered++
		for _, fn := range r.deliverSubs {
			fn(d.Group, d, from)
		}
		// The origin is a member: incidental evidence for the member
		// cache, with the unicast route's hop count when available.
		hops := pkt.NearestUnknown
		if h, okHops := r.uni.RouteHops(d.Origin); okHops {
			hops = h
		}
		r.fireEvidence(d.Group, d.Origin, hops)
	}

	// Forward along the tree unless this node is a leaf on this branch
	// (the only enabled link is the one the packet came from).
	if g.enabledCount() > 1 && r.stack.Rebroadcast(p, r.rng, r.cfg.ForwardJitter) != nil {
		r.stats.DataForwarded++
	}
}
