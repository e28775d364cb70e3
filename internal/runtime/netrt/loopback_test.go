package netrt_test

import (
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/runtime/netrt"
	"anongossip/internal/scenario"
	"anongossip/internal/stack"
)

const testGroup pkt.GroupID = 0xE0000001

// bootCluster starts n live protocol nodes on one in-process transport,
// all joined to testGroup, and returns them with a cleanup.
func bootCluster(t *testing.T, n int, spec stack.Spec, scale float64) []*netrt.ProtocolNode {
	t.Helper()
	tr := netrt.NewChanTransport()
	nodes := make([]*netrt.ProtocolNode, 0, n)
	for i := 0; i < n; i++ {
		pn, err := netrt.NewProtocolNode(netrt.ProtocolConfig{
			Node:  netrt.NodeConfig{ID: pkt.NodeID(i + 1), TimeScale: scale},
			Stack: spec,
			Seed:  42,
		}, tr)
		if err != nil {
			t.Fatalf("NewProtocolNode %d: %v", i+1, err)
		}
		t.Cleanup(func() { pn.Close() })
		nodes = append(nodes, pn)
	}
	for _, pn := range nodes {
		pn.Start()
	}
	for _, pn := range nodes {
		if err := pn.Join(testGroup); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	return nodes
}

// simBaselineRatio runs the simulated scenario on an equivalent
// topology — 3 nodes, all in mutual radio range, same stack — and
// returns its delivery ratio. The loopback cluster must do at least
// this well: a lossless in-process link can't be worse than a
// contended radio.
func simBaselineRatio(t *testing.T, spec stack.Spec) float64 {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.Stack = spec
	cfg.Nodes = 3
	cfg.MemberFraction = 1
	cfg.Area.W, cfg.Area.H = 20, 20 // everyone inside the 75 m range
	cfg.MaxSpeed = 0.1
	cfg.Duration = 60 * time.Second
	cfg.JoinWindow = 5 * time.Second
	cfg.DataStart = 10 * time.Second
	cfg.DataEnd = 14 * time.Second
	cfg.DataInterval = 200 * time.Millisecond
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatalf("sim baseline: %v", err)
	}
	return res.DeliveryRatio()
}

// TestLoopbackCluster is the hermetic end-to-end check the CI loopback
// job runs under -race: three live flood nodes on the in-process
// transport must deliver a multicast stream at least as well as the
// simulator does on the same (all-in-range, 3-node) topology.
func TestLoopbackCluster(t *testing.T) {
	baseline := simBaselineRatio(t, stack.Spec{Routing: "flood"})
	t.Logf("sim baseline delivery ratio: %.3f", baseline)

	// TimeScale 100: flood's 10 ms rebroadcast jitter costs 0.1 ms wall.
	nodes := bootCluster(t, 3, stack.Spec{Routing: "flood"}, 100)

	const packets = 21
	for i := 0; i < packets; i++ {
		if _, err := nodes[0].Publish(testGroup); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, pn := range nodes[1:] {
			n, err := pn.Delivered()
			if err != nil {
				t.Fatalf("Delivered: %v", err)
			}
			if n < packets {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	var sum float64
	for _, pn := range nodes[1:] {
		n, err := pn.Delivered()
		if err != nil {
			t.Fatalf("Delivered: %v", err)
		}
		t.Logf("node %v delivered %d/%d", pn.ID(), n, packets)
		sum += float64(n) / packets
	}
	live := sum / float64(len(nodes)-1)
	if live < baseline {
		t.Fatalf("live delivery ratio %.3f below sim baseline %.3f", live, baseline)
	}
	for _, pn := range nodes {
		if drops := pn.Runtime().Stats().InboxDrops.Load(); drops > 0 {
			t.Errorf("node %v dropped %d inbound frames", pn.ID(), drops)
		}
	}
}

// TestLoopbackClusterGossipStack boots the paper's full stack —
// multicast routing under anonymous-gossip recovery — on the live
// runtime and checks the stream flows end to end. A coarse smoke
// check, not a delivery-ratio comparison: tree construction under
// compressed wall-clock time is timing-sensitive, and the flood test
// above carries the strict bound.
func TestLoopbackClusterGossipStack(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live protocol smoke")
	}
	nodes := bootCluster(t, 3, stack.Spec{Routing: "flood", Recovery: "gossip"}, 100)

	const packets = 10
	for i := 0; i < packets; i++ {
		if _, err := nodes[0].Publish(testGroup); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}

	waitDelivered := func(pn *netrt.ProtocolNode, want uint64) uint64 {
		deadline := time.Now().Add(20 * time.Second)
		for {
			n, err := pn.Delivered()
			if err != nil {
				t.Fatalf("Delivered: %v", err)
			}
			if n >= want || time.Now().After(deadline) {
				return n
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, pn := range nodes[1:] {
		if n := waitDelivered(pn, packets); n == 0 {
			t.Errorf("node %v delivered nothing", pn.ID())
		} else {
			t.Logf("node %v delivered %d/%d", pn.ID(), n, packets)
		}
	}
	// The recovery layer must at least be live and queryable.
	if _, err := nodes[1].RecoveryStats(); err != nil {
		t.Errorf("RecoveryStats: %v", err)
	}
}

// TestProtocolNodeDuplicateID pins the join-time duplicate-ID contract
// at the assembled-stack level: the second node with the same identity
// must be rejected before it ever runs.
func TestProtocolNodeDuplicateID(t *testing.T) {
	tr := netrt.NewChanTransport()
	cfg := netrt.ProtocolConfig{
		Node:  netrt.NodeConfig{ID: 5},
		Stack: stack.Spec{Routing: "flood"},
	}
	pn, err := netrt.NewProtocolNode(cfg, tr)
	if err != nil {
		t.Fatalf("first node: %v", err)
	}
	defer pn.Close()
	if _, err := netrt.NewProtocolNode(cfg, tr); err == nil {
		t.Fatal("duplicate-ID join succeeded, want error")
	}
}
