package stack

import (
	"fmt"

	"anongossip/internal/pkt"
)

// Node is one node's assembled protocol stack: a routing instance and,
// for composed stacks, the recovery instance layered over it. It is the
// one place that knows how the two fit together, so the simulated
// scenario and the live runtime drive the same object and neither asks
// whether a recovery layer is present.
type Node struct {
	spec     Spec
	routing  RoutingNode
	recovery RecoveryNode // nil for bare routing
}

// Assemble resolves s and builds one node's stack in env: routing
// first, then the recovery layer over it. It is the only caller of the
// registered builders. Subscribe with OnDeliver, then call Start.
func (r *Registry) Assemble(s Spec, env Env) (*Node, error) {
	s = s.Normalize()
	routingB, recoveryB, err := r.Resolve(s)
	if err != nil {
		return nil, err
	}
	n := &Node{spec: s, routing: routingB.Build(env)}
	if recoveryB != nil {
		if n.recovery, err = recoveryB.Build(env, n.routing); err != nil {
			return nil, fmt.Errorf("stack: assembling %v: %w", s, err)
		}
	}
	return n, nil
}

// Assemble builds one node's stack from the default registry.
func Assemble(s Spec, env Env) (*Node, error) { return Default.Assemble(s, env) }

// Spec returns the normalized spec the node was assembled from.
func (n *Node) Spec() Spec { return n.spec }

// OnDeliver subscribes to unique application-level data deliveries.
// recovered marks packets obtained through the recovery layer (never
// set on a bare-routing stack). d is borrowed under the rule of
// runtime.ReceiveFunc: read-only, valid until fn returns, copy the
// Data value to keep it. Call before Start.
func (n *Node) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, recovered bool)) {
	if n.recovery != nil {
		n.recovery.OnDeliver(fn)
		return
	}
	n.routing.OnDeliver(func(g pkt.GroupID, d *pkt.Data, _ pkt.NodeID) { fn(g, d, false) })
}

// Start activates background behaviour (beacons, hellos, a unicast
// substrate the recovery layer owns): routing first, then recovery.
func (n *Node) Start() {
	n.routing.Start()
	if n.recovery != nil {
		n.recovery.Start()
	}
}

// Join registers membership in g and starts recovery rounds for it.
func (n *Node) Join(g pkt.GroupID) {
	n.routing.Join(g)
	if n.recovery != nil {
		n.recovery.Attach(g)
	}
}

// Publish multicasts one application payload to g and returns its
// sequence key. The recovery layer learns of a packet that was sent, so
// this member can serve repairs for what it originated.
func (n *Node) Publish(g pkt.GroupID) (pkt.SeqKey, error) {
	key, err := n.routing.SendData(g)
	if err == nil && n.recovery != nil {
		n.recovery.OnLocalSend(g, key)
	}
	return key, err
}

// Delivered counts unique data packets delivered to the application.
func (n *Node) Delivered() uint64 { return n.RecoveryStats().Delivered }

// RecoveryStats returns the member's outcome counters. A bare-routing
// stack reports what routing delivered, no recovery traffic and 100 %
// goodput — what a recovery layer reports before its first reply.
func (n *Node) RecoveryStats() RecoveryStats {
	if n.recovery != nil {
		return n.recovery.Stats()
	}
	return RecoveryStats{Delivered: n.routing.Delivered(), Goodput: 100}
}
