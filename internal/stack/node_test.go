package stack

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"anongossip/internal/pkt"
)

// recRouting and recRecovery are fake engines that log every call into
// one shared journal, so a test can read the order Node drove them in.
type recRouting struct {
	log       *[]string
	deliver   func(pkt.GroupID, *pkt.Data, pkt.NodeID)
	sendErr   error
	delivered uint64
}

func (r *recRouting) Join(pkt.GroupID) { *r.log = append(*r.log, "routing.Join") }
func (r *recRouting) SendData(pkt.GroupID) (pkt.SeqKey, error) {
	*r.log = append(*r.log, "routing.SendData")
	return pkt.SeqKey{Origin: 1, Seq: 9}, r.sendErr
}
func (r *recRouting) OnDeliver(fn func(pkt.GroupID, *pkt.Data, pkt.NodeID)) { r.deliver = fn }
func (r *recRouting) Delivered() uint64                                     { return r.delivered }
func (r *recRouting) PayloadLen() uint16                                    { return 64 }
func (r *recRouting) Start()                                                { *r.log = append(*r.log, "routing.Start") }

type recRecovery struct {
	log     *[]string
	deliver func(pkt.GroupID, *pkt.Data, bool)
	stats   RecoveryStats
}

func (r *recRecovery) Attach(pkt.GroupID) { *r.log = append(*r.log, "recovery.Attach") }
func (r *recRecovery) OnLocalSend(pkt.GroupID, pkt.SeqKey) {
	*r.log = append(*r.log, "recovery.OnLocalSend")
}
func (r *recRecovery) OnDeliver(fn func(pkt.GroupID, *pkt.Data, bool)) { r.deliver = fn }
func (r *recRecovery) Stats() RecoveryStats                            { return r.stats }
func (r *recRecovery) Start()                                          { *r.log = append(*r.log, "recovery.Start") }

// nodeBuilder registers as both axes and hands out the fakes above.
type nodeBuilder struct {
	name     string
	routing  *recRouting
	recovery *recRecovery
	err      error
}

func (b nodeBuilder) Name() string          { return b.name }
func (b nodeBuilder) Build(Env) RoutingNode { return b.routing }

type nodeRecoveryBuilder struct{ nodeBuilder }

func (b nodeRecoveryBuilder) Build(_ Env, rt RoutingNode) (RecoveryNode, error) {
	if rt != RoutingNode(b.routing) {
		return nil, errors.New("recovery built over a different routing node")
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.recovery, nil
}

// nodeRegistry is a private registry of one routing and one recovery
// protocol over the given fakes.
func nodeRegistry(rt *recRouting, rec *recRecovery, buildErr error) *Registry {
	r := &Registry{}
	b := nodeBuilder{name: "tree", routing: rt, recovery: rec, err: buildErr}
	r.RegisterRouting(b)
	b.name = "repair"
	r.RegisterRecovery(nodeRecoveryBuilder{b})
	return r
}

// TestAssembleBareNode drives a routing-only node: routing alone
// delivers (never recovered), starts, joins, publishes and counts.
func TestAssembleBareNode(t *testing.T) {
	var log []string
	rt := &recRouting{log: &log, delivered: 7}
	rec := &recRecovery{log: &log}
	n, err := nodeRegistry(rt, rec, nil).Assemble(Spec{Routing: "Tree", Recovery: "none"}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Spec() != (Spec{Routing: "tree"}) {
		t.Fatalf("spec = %v, want the normalized bare spec", n.Spec())
	}

	var got []bool
	n.OnDeliver(func(_ pkt.GroupID, _ *pkt.Data, recovered bool) { got = append(got, recovered) })
	if rec.deliver != nil {
		t.Fatal("bare node subscribed to a recovery layer")
	}
	rt.deliver(1, &pkt.Data{}, 2)
	if !slices.Equal(got, []bool{false}) {
		t.Fatalf("deliveries = %v, want one routing delivery", got)
	}

	n.Start()
	n.Join(1)
	if _, err := n.Publish(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"routing.Start", "routing.Join", "routing.SendData"}
	if !slices.Equal(log, want) {
		t.Fatalf("calls = %v, want %v", log, want)
	}
	if n.Delivered() != 7 {
		t.Fatalf("Delivered = %d, want routing's 7", n.Delivered())
	}
	if rs := n.RecoveryStats(); rs != (RecoveryStats{Delivered: 7, Goodput: 100}) {
		t.Fatalf("RecoveryStats = %+v, want routing's count at 100%% goodput", rs)
	}
}

// TestAssembleComposedNode drives routing under recovery: the recovery
// layer is the delivery source and carries the recovered flag, routing
// starts first, joining attaches recovery, a sent packet reaches
// OnLocalSend and a failed send does not, and the counters are the
// recovery layer's.
func TestAssembleComposedNode(t *testing.T) {
	var log []string
	rt := &recRouting{log: &log, delivered: 3}
	stats := RecoveryStats{Delivered: 5, Recovered: 2, ReplyNew: 2, ReplyDup: 1, Goodput: 66, Rounds: 4, Replies: 3}
	rec := &recRecovery{log: &log, stats: stats}
	n, err := nodeRegistry(rt, rec, nil).Assemble(Spec{Routing: "tree", Recovery: "repair"}, Env{})
	if err != nil {
		t.Fatal(err)
	}

	var got []bool
	n.OnDeliver(func(_ pkt.GroupID, _ *pkt.Data, recovered bool) { got = append(got, recovered) })
	if rt.deliver != nil {
		t.Fatal("composed node subscribed to routing behind the recovery layer's back")
	}
	rec.deliver(1, &pkt.Data{}, false)
	rec.deliver(1, &pkt.Data{}, true)
	if !slices.Equal(got, []bool{false, true}) {
		t.Fatalf("deliveries = %v, want the recovery layer's flags", got)
	}

	n.Start()
	n.Join(1)
	key, err := n.Publish(1)
	if err != nil || key != (pkt.SeqKey{Origin: 1, Seq: 9}) {
		t.Fatalf("Publish = %v, %v", key, err)
	}
	rt.sendErr = errors.New("not in tree")
	if _, err := n.Publish(1); err != rt.sendErr {
		t.Fatalf("failed Publish err = %v, want routing's", err)
	}
	want := []string{
		"routing.Start", "recovery.Start",
		"routing.Join", "recovery.Attach",
		"routing.SendData", "recovery.OnLocalSend",
		"routing.SendData", // the failed send never reaches recovery
	}
	if !slices.Equal(log, want) {
		t.Fatalf("calls = %v, want %v", log, want)
	}
	if n.Delivered() != 5 {
		t.Fatalf("Delivered = %d, want recovery's 5", n.Delivered())
	}
	if rs := n.RecoveryStats(); rs != stats {
		t.Fatalf("RecoveryStats = %+v, want %+v", rs, stats)
	}
}

// TestAssembleErrors surfaces an unknown spec and a recovery builder
// that refuses the routing node.
func TestAssembleErrors(t *testing.T) {
	var log []string
	rt, rec := &recRouting{log: &log}, &recRecovery{log: &log}
	if _, err := nodeRegistry(rt, rec, nil).Assemble(Spec{Routing: "bogus"}, Env{}); err == nil {
		t.Fatal("unknown routing assembled")
	}
	if _, err := nodeRegistry(rt, rec, nil).Assemble(Spec{}, Env{}); err == nil {
		t.Fatal("zero spec assembled")
	}
	refuse := errors.New("no walk substrate")
	_, err := nodeRegistry(rt, rec, refuse).Assemble(Spec{Routing: "tree", Recovery: "repair"}, Env{})
	if !errors.Is(err, refuse) || !strings.Contains(err.Error(), "tree+repair") {
		t.Fatalf("builder error = %v, want it wrapped with the stack name", err)
	}
}
