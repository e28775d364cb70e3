package maodv

import (
	"fmt"

	"anongossip/internal/aodv"
	"anongossip/internal/gossip"
	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

// The "maodv" routing axis: MAODV over its AODV unicast substrate, the
// paper's baseline multicast protocol.
func init() { stack.RegisterRouting(stackBuilder{}) }

// The Router is its own stack node and answers every probe the gossip
// builder makes, written as the builder writes them: a method taking a
// named func type would not match, and its evidence would be dropped
// without a build error.
var (
	_ stack.RoutingNode                     = (*Router)(nil)
	_ interface{ GossipTree() gossip.Tree } = (*Router)(nil)
	_ interface{ Unicast() *aodv.Router }   = (*Router)(nil)
	_ interface {
		OnMemberEvidence(fn func(g pkt.GroupID, member pkt.NodeID, hops uint8))
	} = (*Router)(nil)
)

type stackBuilder struct{}

func (stackBuilder) Name() string { return "maodv" }

func (stackBuilder) Build(env stack.Env) stack.RoutingNode {
	uni := aodv.New(env.Stack, env.RNG.Derive(fmt.Sprintf("aodv/%d", env.Index)),
		stack.Param(env.Params, "aodv", aodv.DefaultConfig))
	return New(env.Stack, uni, env.RNG.Derive(fmt.Sprintf("maodv/%d", env.Index)),
		stack.Param(env.Params, "maodv", DefaultConfig))
}
