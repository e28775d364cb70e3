package netrt

import (
	"fmt"
	"sync"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/stack"
)

// ProtocolConfig assembles one live protocol node.
type ProtocolConfig struct {
	// Node configures the runtime layer (identity, time scale, inbox).
	Node NodeConfig
	// Stack names the protocol stack to run; a zero Spec fails, naming
	// every stack. Every layer runs on the paper's parameters.
	Stack stack.Spec
	// Seed seeds the node's RNG tree, derived by the node's identity:
	// two nodes on one seed draw independent streams (unlike a
	// simulation, there is no shared run seed) while a restarted node
	// reproduces its own.
	Seed int64
}

// ProtocolNode is one live node running a full protocol stack: the
// runtime Node, the network layer, and the same stack.Node the
// simulated scenario assembles. Protocol state is touched only on the
// node's event loop.
type ProtocolNode struct {
	rt    *Node
	stack *node.Stack
	node  *stack.Node

	// pub is Publish's call: the closure, bound once, and its argument
	// and results. mu serialises Publish callers around them.
	pub struct {
		mu    sync.Mutex
		fn    func()
		group pkt.GroupID
		key   pkt.SeqKey
		err   error
	}
}

// NewProtocolNode joins the transport and assembles the stack. The node
// is not started: register OnDeliver subscribers, then call Start.
func NewProtocolNode(cfg ProtocolConfig, tr Transport) (*ProtocolNode, error) {
	rt, err := NewNode(cfg.Node, tr)
	if err != nil {
		return nil, fmt.Errorf("netrt: join as %v: %w", cfg.Node.ID, err)
	}
	st := node.NewOnRuntime(rt)
	rng := sim.NewRNG(cfg.Seed).Derive(fmt.Sprintf("netrt/%d", cfg.Node.ID))
	n, err := stack.Assemble(cfg.Stack, st, rng, int(cfg.Node.ID), gossip.DefaultConfig())
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("netrt: %w", err)
	}
	p := &ProtocolNode{rt: rt, stack: st, node: n}
	p.pub.fn = func() { p.pub.key, p.pub.err = n.Publish(p.pub.group) }
	return p, nil
}

// ID returns the node's address.
func (p *ProtocolNode) ID() pkt.NodeID { return p.rt.id }

// Spec returns the resolved stack spec.
func (p *ProtocolNode) Spec() stack.Spec { return p.node.Spec() }

// Runtime exposes the underlying live node (stats, Do).
func (p *ProtocolNode) Runtime() *Node { return p.rt }

// NodeStats returns a copy of the network-layer counters.
func (p *ProtocolNode) NodeStats() (s node.Stats, err error) {
	err = p.rt.Do(func() { s = p.stack.Stats() })
	return s, err
}

// OnDeliver subscribes to application-level data deliveries. recovered
// marks packets obtained through the recovery layer (always false on
// bare-routing stacks). d belongs to the runtime, is read-only and is
// valid until fn returns: copy the Data value to keep it. Call before
// Start.
func (p *ProtocolNode) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, recovered bool)) {
	p.node.OnDeliver(fn)
}

// Start activates the engines (beacons, hellos, gossip rounds) and then
// launches the event loop. Engine activation happens before the loop
// runs, on the caller's goroutine, matching the simulated assembly
// where Start precedes Scheduler.Run.
func (p *ProtocolNode) Start() {
	p.node.Start()
	p.rt.Start()
}

// Close stops the event loop and leaves the transport.
func (p *ProtocolNode) Close() error { return p.rt.Close() }

// Join registers membership in g on the event loop.
func (p *ProtocolNode) Join(g pkt.GroupID) error {
	return p.rt.Do(func() { p.node.Join(g) })
}

// Publish multicasts one application payload to g and returns its
// sequence key. It allocates nothing.
func (p *ProtocolNode) Publish(g pkt.GroupID) (pkt.SeqKey, error) {
	p.pub.mu.Lock()
	defer p.pub.mu.Unlock()
	p.pub.group = g
	if err := p.rt.Do(p.pub.fn); err != nil {
		return pkt.SeqKey{}, err
	}
	return p.pub.key, p.pub.err
}

// RecoveryStats returns the member's outcome counters (see
// stack.Node.RecoveryStats for what a bare-routing stack reports).
func (p *ProtocolNode) RecoveryStats() (s stack.RecoveryStats, err error) {
	err = p.rt.Do(func() { s = p.node.RecoveryStats() })
	return s, err
}
