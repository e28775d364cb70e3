// Package stack defines the composable protocol-stack API: a two-axis
// model where a stack is a multicast *routing* protocol (maodv, odmrp,
// flood, ...) optionally layered under a loss-*recovery* protocol
// (gossip, ...), mirroring the paper's claim (§1, §7) that Anonymous
// Gossip is a generic reliability layer usable over any multicast
// routing protocol.
//
// Protocol packages register themselves into the name-keyed registry at
// init time (see Registry). Assemble resolves a Spec such as
// {Routing: "flood", Recovery: "gossip"} and builds one Node, which both
// the simulated scenario and the live runtime drive. Adding a stack
// therefore means registering a builder in one package — no scenario
// edits, no enum, no switch.
package stack

import (
	"fmt"

	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
)

// Params carries per-layer configuration blocks keyed by layer name
// ("aodv", "maodv", "flood", "odmrp", "gossip", ...). The scenario
// fills it from its Config; builders look their block up and fall back
// to their package defaults when it is absent. The indirection keeps
// the registry free of imports of the protocol packages it names —
// builders depend on this package, never the reverse.
type Params map[string]any

// Param fetches a typed configuration block from p, falling back to
// def() when the key is absent. A key that is present but holds the
// wrong type is a mis-wired assembly, never a runtime condition, and
// panics rather than silently running the experiment on defaults.
func Param[T any](p Params, key string, def func() T) T {
	v, ok := p[key]
	if !ok {
		return def()
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("stack: params[%q] holds %T, want %T", key, v, *new(T)))
	}
	return t
}

// Env is the per-node build context handed to builders.
type Env struct {
	// Stack is the node's network layer.
	Stack *node.Stack
	// RNG is the run's root generator. Builders derive their component
	// streams by stable labels ("aodv/<index>", "gossip/<index>", ...)
	// so results are reproducible and independent across layers.
	RNG *sim.RNG
	// Index is the node's position in the build order, used in RNG
	// derivation labels.
	Index int
	// Params holds the per-layer configuration blocks.
	Params Params
}

// RoutingNode is one node's instance of a multicast routing protocol.
type RoutingNode interface {
	// Join registers group membership and starts whatever tree/mesh
	// maintenance the protocol needs.
	Join(g pkt.GroupID)
	// SendData multicasts one application payload to the group,
	// returning its sequence key.
	SendData(g pkt.GroupID) (pkt.SeqKey, error)
	// OnDeliver subscribes to application-level data deliveries at this
	// member; from is the neighbour the packet arrived from.
	OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID))
	// Delivered reports the count of unique data packets delivered to
	// the member application.
	Delivered() uint64
	// PayloadLen is the synthetic application payload size, needed by
	// recovery layers that re-advertise locally originated packets.
	PayloadLen() uint16
	// Start activates background behaviour (beacons, hellos). It runs
	// once per node, after the recovery layer (if any) has been wired,
	// so no events are scheduled mid-assembly.
	Start()
}

// Routing builds one node's routing instance. Implementations register
// themselves with RegisterRouting.
type Routing interface {
	// Name is the registry key ("maodv", "odmrp", "flood", ...).
	Name() string
	// Build assembles the per-node instance and registers its packet
	// handlers. It must not schedule events or draw from derived RNGs
	// beyond construction needs — activation belongs in Start.
	Build(env Env) RoutingNode
}

// RecoveryStats is the per-member outcome of a recovery layer.
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
	// the repair replies it received (the sampler's activity series).
	Rounds, Replies uint64
}

// RecoveryNode is one node's instance of a loss-recovery protocol
// layered over a RoutingNode.
type RecoveryNode interface {
	// Attach starts recovery rounds for a group the node has joined.
	Attach(g pkt.GroupID)
	// OnLocalSend records a packet this member originated, so the
	// recovery layer can serve repairs for it.
	OnLocalSend(g pkt.GroupID, key pkt.SeqKey)
	// OnDeliver subscribes to unique data deliveries; recovered marks
	// packets that arrived through the recovery layer rather than the
	// routing protocol.
	OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, recovered bool))
	// Stats returns the member's recovery counters.
	Stats() RecoveryStats
	// Start activates background behaviour the recovery layer owns
	// (e.g. a unicast routing substrate it had to create itself).
	Start()
}

// Recovery builds one node's recovery instance over an already-built
// routing node. Implementations register themselves with
// RegisterRecovery.
type Recovery interface {
	// Name is the registry key ("gossip", ...).
	Name() string
	// Build wires the recovery layer over routing. It reports an error
	// when the routing node cannot support this recovery layer (e.g. it
	// exposes no walkable substrate).
	Build(env Env, routing RoutingNode) (RecoveryNode, error)
}
