package odmrp

import (
	"fmt"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/stack"
)

// The "odmrp" routing axis: mesh-based multicast, the paper's first
// generalisation target (§5.5, §7).
func init() { stack.RegisterRouting(stackBuilder{}) }

// The Router is its own stack node and, through GossipTree, the gossip
// builder's walk substrate.
var (
	_ stack.RoutingNode                     = (*Router)(nil)
	_ interface{ GossipTree() gossip.Tree } = (*Router)(nil)
)

type stackBuilder struct{}

func (stackBuilder) Name() string { return "odmrp" }

func (stackBuilder) Build(env stack.Env) stack.RoutingNode {
	or := New(env.Stack, env.RNG.Derive(fmt.Sprintf("odmrp/%d", env.Index)),
		stack.Param(env.Params, "odmrp", DefaultConfig))
	// ODMRP needs no unicast routing of its own; a recovery layer that
	// does (gossip replies are unicast) installs AODV over this.
	env.Stack.SetRouter(node.NullRouter{})
	return or
}
