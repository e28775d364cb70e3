package flood

import (
	"fmt"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/stack"
)

// The "flood" routing axis: plain flooding, the related-work baseline.
func init() { stack.RegisterRouting(stackBuilder{}) }

// The Router is its own stack node and, through GossipTree, the gossip
// builder's walk substrate.
var (
	_ stack.RoutingNode                     = (*Router)(nil)
	_ interface{ GossipTree() gossip.Tree } = (*Router)(nil)
)

type stackBuilder struct{}

func (stackBuilder) Name() string { return "flood" }

func (stackBuilder) Build(env stack.Env) stack.RoutingNode {
	fr := New(env.Stack, env.RNG.Derive(fmt.Sprintf("flood/%d", env.Index)),
		stack.Param(env.Params, "flood", DefaultConfig))
	// Flooding needs no unicast routing; a recovery layer that does
	// (gossip replies are unicast) installs AODV over this.
	env.Stack.SetRouter(node.NullRouter{})
	return fr
}
