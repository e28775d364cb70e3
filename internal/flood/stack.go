package flood

import (
	"fmt"
	"slices"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

// The "flood" routing axis: plain flooding, the related-work baseline.
func init() { stack.RegisterRouting(stackBuilder{}) }

type stackBuilder struct{}

func (stackBuilder) Name() string { return "flood" }

func (stackBuilder) Build(env stack.Env) stack.RoutingNode {
	cfg := stack.Param(env.Params, "flood", DefaultConfig)
	fr := New(env.Stack, env.RNG.Derive(fmt.Sprintf("flood/%d", env.Index)), cfg)
	// Flooding needs no unicast routing; a recovery layer that does
	// (gossip replies are unicast) installs AODV over this.
	env.Stack.SetRouter(node.NullRouter{})
	return &stackNode{r: fr, payload: cfg.PayloadLen}
}

// stackNode adapts a Router to stack.RoutingNode.
type stackNode struct {
	r       *Router
	payload uint16
}

func (n *stackNode) Join(g pkt.GroupID)                         { n.r.Join(g) }
func (n *stackNode) SendData(g pkt.GroupID) (pkt.SeqKey, error) { return n.r.SendData(g) }
func (n *stackNode) Delivered() uint64                          { return n.r.Stats().DataDelivered }
func (n *stackNode) PayloadLen() uint16                         { return n.payload }
func (n *stackNode) Start()                                     {}

func (n *stackNode) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data)) {
	n.r.OnDeliver(func(g pkt.GroupID, d *pkt.Data, _ pkt.NodeID) { fn(g, d) })
}

// GossipTree exposes the relay table as an AG walk substrate, switching
// relay tracking on for this node.
func (n *stackNode) GossipTree() gossip.Tree {
	n.r.trackRelays = true
	return relayTree{n.r}
}

// relayTree adapts the Router's data-plane relay table to gossip.Tree.
// Flooding has no tree and no nearest-member machinery, so next hops
// advertise unknown distances and the walk degrades to uniform choice
// over recently-heard relays — the same degradation ODMRP's mesh has.
type relayTree struct{ r *Router }

func (t relayTree) NextHops(_ pkt.GroupID) []gossip.NextHop {
	now := t.r.sched.Now()
	ids := make([]pkt.NodeID, 0, len(t.r.relays))
	for id, expiry := range t.r.relays {
		if expiry <= now {
			delete(t.r.relays, id)
			continue
		}
		ids = append(ids, id)
	}
	// Map order is random; the walk draws from this slice with the
	// node's own RNG, so the order must be deterministic.
	slices.Sort(ids)
	out := make([]gossip.NextHop, len(ids))
	for i, id := range ids {
		out[i] = gossip.NextHop{ID: id, Nearest: pkt.NearestUnknown}
	}
	return out
}

func (t relayTree) IsMember(g pkt.GroupID) bool { return t.r.IsMember(g) }
