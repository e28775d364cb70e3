package gossip

import (
	"fmt"

	"anongossip/internal/aodv"
	"anongossip/internal/pkt"
	"anongossip/internal/stack"
)

// The "gossip" recovery axis: Anonymous Gossip layered over any routing
// protocol that exposes a walk substrate — the paper's central claim.
// The aliases (paper figure labels, older CLI spellings) register beside
// it, so every binary that links the layer resolves them alike.
func init() {
	stack.RegisterRecovery(recoveryBuilder{})
	stack.RegisterAlias("gossip", stack.Spec{Routing: "maodv", Recovery: "gossip"})
	stack.RegisterAlias("odmrp-gossip", stack.Spec{Routing: "odmrp", Recovery: "gossip"})
	stack.RegisterAlias("odmrp+ag", stack.Spec{Routing: "odmrp", Recovery: "gossip"})
}

type recoveryBuilder struct{}

func (recoveryBuilder) Name() string { return "gossip" }

func (recoveryBuilder) Build(env stack.Env, routing stack.RoutingNode) (stack.RecoveryNode, error) {
	tp, ok := routing.(interface{ GossipTree() Tree })
	if !ok {
		return nil, fmt.Errorf("gossip: routing %T exposes no walk substrate (wants GossipTree() gossip.Tree)", routing)
	}
	// Gossip requests walk the substrate hop by hop, but replies are
	// unicast: reuse the routing protocol's unicast substrate when it
	// has one (MAODV runs over AODV anyway), else install AODV here.
	var uni *aodv.Router
	ownUni := false
	if up, ok := routing.(interface{ Unicast() *aodv.Router }); ok {
		uni = up.Unicast()
	} else {
		uni = aodv.New(env.Stack, env.RNG.Derive(fmt.Sprintf("aodv/%d", env.Index)),
			stack.Param(env.Params, "aodv", aodv.DefaultConfig))
		ownUni = true
	}
	eng := New(env.Stack, tp.GossipTree(), env.RNG.Derive(fmt.Sprintf("gossip/%d", env.Index)),
		stack.Param(env.Params, "gossip", DefaultConfig))
	eng.SetHopEstimator(uni.RouteHops)
	routing.OnDeliver(eng.OnTreeData)
	if me, ok := routing.(interface {
		OnMemberEvidence(fn func(g pkt.GroupID, member pkt.NodeID, hops uint8))
	}); ok {
		me.OnMemberEvidence(eng.OnMemberEvidence)
	}
	return &recoveryNode{eng: eng, uni: uni, ownUni: ownUni, payload: routing.PayloadLen()}, nil
}

// recoveryNode adapts an Engine (plus an AODV substrate it may own) to
// stack.RecoveryNode.
type recoveryNode struct {
	eng     *Engine
	uni     *aodv.Router
	ownUni  bool
	payload uint16
}

func (n *recoveryNode) Attach(g pkt.GroupID) { n.eng.Attach(g) }

func (n *recoveryNode) OnLocalSend(g pkt.GroupID, key pkt.SeqKey) {
	n.eng.OnLocalData(g, pkt.Data{
		Group: g, Origin: key.Origin, Seq: key.Seq, PayloadLen: n.payload,
	})
}

func (n *recoveryNode) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, recovered bool)) {
	n.eng.OnDeliver(fn)
}

func (n *recoveryNode) Stats() stack.RecoveryStats {
	s := n.eng.Stats()
	return stack.RecoveryStats{
		Delivered: s.Delivered,
		Recovered: s.ReplyMsgsNew,
		ReplyNew:  s.ReplyMsgsNew,
		ReplyDup:  s.ReplyMsgsDup,
		Goodput:   s.Goodput(),
		Rounds:    s.RoundsAnon + s.RoundsCached,
		Replies:   s.RepliesReceived,
	}
}

func (n *recoveryNode) Start() {
	if n.ownUni {
		n.uni.Start()
	}
}
