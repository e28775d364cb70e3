package stack

import (
	"strconv"

	"anongossip/internal/aodv"
	"anongossip/internal/flood"
	"anongossip/internal/gossip"
	"anongossip/internal/maodv"
	"anongossip/internal/node"
	"anongossip/internal/odmrp"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// RecoveryStats is the per-member outcome of a stack.
type RecoveryStats struct {
	// Delivered counts unique data packets obtained (routing + recovery).
	Delivered uint64
	// Recovered counts packets obtained through the recovery layer.
	Recovered uint64
	// ReplyNew/ReplyDup split recovery reply traffic into useful and
	// redundant messages (the goodput numerator components, paper §5.5).
	ReplyNew, ReplyDup uint64
	// Goodput is the percentage of useful recovery traffic.
	Goodput float64
	// Rounds counts recovery rounds this member initiated and Replies
	// the repair replies it received (the metrics windows' activity series).
	Rounds, Replies uint64
}

// routing is what Node asks of a multicast router; the flood, maodv and
// odmrp Routers satisfy it themselves.
type routing interface {
	Join(g pkt.GroupID)
	SendData(g pkt.GroupID) (pkt.Data, error)
	OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID))
	Delivered() uint64
}

// Node is one node's assembled protocol stack: a routing instance and,
// for composed stacks, the gossip engine layered over it. It is the one
// place that knows how the two fit together, so the simulated scenario
// and the live runtime drive the same object and neither asks whether a
// recovery layer is present.
type Node struct {
	spec    Spec
	routing routing
	// uni is the AODV substrate Start starts: MAODV's own, or the one a
	// recovery layer installs for its unicast replies; nil otherwise.
	uni *aodv.Router
	// eng is the recovery layer; nil for bare routing.
	eng *gossip.Engine
}

// Assemble builds one node's stack s on st: the routing first, then the
// gossip engine over it, configured by g. The routing and its AODV
// substrate run on the paper's parameters.
// Component RNG streams derive from rng under the labels
// "<layer>/<index>". Subscribe with OnDeliver, then call Start.
func Assemble(s Spec, st *node.Stack, rng *sim.RNG, index int, g gossip.Config) (*Node, error) {
	s = s.Normalize()
	if err := Check(s); err != nil {
		return nil, err
	}
	var label [32]byte // built in place: fmt.Sprintf allocated per stream
	derive := func(layer string) *sim.RNG {
		b := strconv.AppendInt(append(append(label[:0], layer...), '/'), int64(index), 10)
		return rng.Derive(string(b))
	}
	recovers := s.Recovery != ""
	n := &Node{spec: s}
	var (
		tree gossip.Tree
		mr   *maodv.Router
	)
	switch s.Routing {
	case "flood":
		fr := flood.New(st, derive("flood"), flood.DefaultConfig())
		if recovers {
			tree = fr.GossipTree() // switches relay tracking on
		}
		n.routing = fr
	case "maodv":
		n.uni = aodv.New(st, derive("aodv"), aodv.DefaultConfig())
		mr = maodv.New(st, n.uni, derive("maodv"), maodv.DefaultConfig())
		n.routing, tree = mr, mr
	case "odmrp":
		or := odmrp.New(st, derive("odmrp"))
		n.routing, tree = or, or
	}
	if !recovers {
		return n, nil
	}
	// Gossip requests walk the routing's substrate hop by hop, but
	// replies are unicast: MAODV's AODV serves them, other routings get
	// one installed here. Each request leaves its receiver a route back
	// to the initiator there, so a reply retraces the request.
	if n.uni == nil {
		n.uni = aodv.New(st, derive("aodv"), aodv.DefaultConfig())
	}
	n.eng = gossip.New(st, tree, derive("gossip"), g)
	n.eng.SetRoutes(n.uni)
	n.routing.OnDeliver(n.eng.OnTreeData)
	if mr != nil {
		mr.OnMemberEvidence(n.eng.OnMemberEvidence)
	}
	return n, nil
}

// Spec returns the normalized spec the node was assembled from.
func (n *Node) Spec() Spec { return n.spec }

// OnDeliver subscribes to unique application-level data deliveries.
// recovered marks packets obtained through the recovery layer (never
// set on a bare-routing stack). d is borrowed under the rule of
// runtime.ReceiveFunc: read-only, valid until fn returns, copy the
// Data value to keep it. Call before Start.
func (n *Node) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, recovered bool)) {
	if n.eng != nil {
		n.eng.OnDeliver(fn)
		return
	}
	n.routing.OnDeliver(func(g pkt.GroupID, d *pkt.Data, _ pkt.NodeID) { fn(g, d, false) })
}

// Start activates background behaviour — the AODV substrate's hello
// beaconing, on stacks that have one. It runs once, after all wiring,
// so no event is scheduled mid-assembly.
func (n *Node) Start() {
	if n.uni != nil {
		n.uni.Start()
	}
}

// Join registers membership in g and starts gossip rounds for it.
func (n *Node) Join(g pkt.GroupID) {
	n.routing.Join(g)
	if n.eng != nil {
		n.eng.Attach(g)
	}
}

// Publish multicasts one application payload to g and returns its
// sequence key. The recovery layer records a packet that was sent, so
// this member can serve repairs for what it originated.
func (n *Node) Publish(g pkt.GroupID) (pkt.SeqKey, error) {
	d, err := n.routing.SendData(g)
	if err == nil && n.eng != nil {
		n.eng.OnLocalData(g, d)
	}
	return d.Key(), err
}

// RouteDiscoveries counts the unicast route discoveries this node's
// AODV substrate started, each one however many rings and floods it
// sent; MAODV's join requests are not among them. It is 0 on a stack
// without one.
func (n *Node) RouteDiscoveries() uint64 {
	if n.uni == nil {
		return 0
	}
	return n.uni.Stats().Discoveries
}

// Delivered counts unique data packets delivered to the application.
func (n *Node) Delivered() uint64 { return n.RecoveryStats().Delivered }

// RecoveryStats returns the member's outcome counters. A bare-routing
// stack reports what routing delivered, no recovery traffic and 100 %
// goodput — what the gossip engine reports before its first reply.
func (n *Node) RecoveryStats() RecoveryStats {
	if n.eng == nil {
		return RecoveryStats{Delivered: n.routing.Delivered(), Goodput: 100}
	}
	s := n.eng.Stats()
	return RecoveryStats{
		Delivered: s.Delivered,
		Recovered: s.ReplyMsgsNew,
		ReplyNew:  s.ReplyMsgsNew,
		ReplyDup:  s.ReplyMsgsDup,
		Goodput:   s.Goodput(),
		Rounds:    s.RoundsAnon + s.RoundsCached,
		Replies:   s.RepliesReceived,
	}
}
