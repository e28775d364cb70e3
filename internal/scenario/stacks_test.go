package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"

	"anongossip/internal/stack"
)

// TestRegisteredStacks pins the stack table: three routing protocols ×
// (bare | gossip) = six stacks.
func TestRegisteredStacks(t *testing.T) {
	want := []string{
		"maodv", "maodv+gossip",
		"odmrp", "odmrp+gossip",
		"flood", "flood+gossip",
	}
	names := stack.Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("stack %q missing (have %v)", w, names)
		}
	}
	if len(names) != len(want) {
		t.Fatalf("%d stacks %v, want %d", len(names), names, len(want))
	}
	// Every canonical name round-trips through ByName.
	for _, s := range stack.Stacks() {
		back, err := stack.ByName(s.String())
		if err != nil {
			t.Fatalf("ByName(%q): %v", s, err)
		}
		if back != s.Normalize() {
			t.Fatalf("round-trip %q: got %v", s, back)
		}
	}
}

// TestLegacyProtocolAliases checks every legacy CLI spelling and paper
// figure label resolves to the right spec.
func TestLegacyProtocolAliases(t *testing.T) {
	byName := map[string]stack.Spec{
		"gossip":       maodvAG,
		"Gossip":       maodvAG,
		"odmrp-gossip": odmrpAG,
		"odmrp+ag":     odmrpAG,
	}
	for name, want := range byName {
		got, err := stack.ByName(name)
		if err != nil {
			t.Fatalf("alias %q: %v", name, err)
		}
		if got != want {
			t.Fatalf("alias %q = %v, want %v", name, got, want)
		}
	}
}

// TestValidateUnknownStackListsNames checks the Validate error of an
// unknown stack names every stack.
func TestValidateUnknownStackListsNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stack = stack.Spec{Routing: "carrier-pigeon"}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown stack accepted")
	}
	for _, name := range stack.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("validate error does not list %q: %v", name, err)
		}
	}
}

// TestFloodGossipStack exercises the sixth stack end to end:
// Anonymous Gossip over plain flooding. At a short 45 m range flooding
// usually drops packets: on every seed where bare flooding lost some,
// the gossip layer must recover some of them and not lower the mean. A
// seed where flooding reached every member leaves nothing to recover,
// so the test also needs at least one seed with losses.
func TestFloodGossipStack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 25
	cfg.TxRange = 45
	cfg.Duration = 120 * time.Second
	cfg.DataStart = 30 * time.Second
	cfg.DataEnd = 100 * time.Second

	lossy := 0
	for _, seed := range []int64{1, 2} {
		bare := cfg
		bare.Seed = seed
		bare.Stack = stack.Spec{Routing: "flood"}
		base, err := Run(bare)
		if err != nil {
			t.Fatalf("flood seed %d: %v", seed, err)
		}

		composed := cfg
		composed.Seed = seed
		composed.Stack = stack.Spec{Routing: "flood", Recovery: "gossip"}
		res, err := Run(composed)
		if err != nil {
			t.Fatalf("flood+gossip seed %d: %v", seed, err)
		}

		if got := res.Stack.String(); got != "flood+gossip" {
			t.Fatalf("result stack = %q", got)
		}
		recovered := 0
		for _, m := range res.Members {
			if m.Recovered > m.Received {
				t.Fatalf("member %v recovered %d > received %d", m.Node, m.Recovered, m.Received)
			}
			if m.Goodput < 0 || m.Goodput > 100 {
				t.Fatalf("member %v goodput %v", m.Node, m.Goodput)
			}
			recovered += m.Recovered
		}
		t.Logf("seed %d: flood %.1f of %d -> flood+gossip %.1f (recovered %d)",
			seed, base.Received.Mean, base.Sent, res.Received.Mean, recovered)
		if !slices.ContainsFunc(base.Members, func(m MemberResult) bool { return m.Received < base.Sent }) {
			continue
		}
		lossy++
		if recovered == 0 {
			t.Fatalf("seed %d: gossip over flooding recovered nothing", seed)
		}
		if res.Received.Mean < base.Received.Mean {
			t.Fatalf("seed %d: flood+gossip mean %.1f below bare flood %.1f",
				seed, res.Received.Mean, base.Received.Mean)
		}
	}
	if lossy == 0 {
		t.Fatal("bare flooding lost nothing on any seed: nothing for gossip to recover")
	}
}

// TestRouteDiscoveriesCountUnicastRequests: Result.RouteDiscoveries sums
// the unicast route discoveries nodes start. A bare stack's gossip-free
// traffic starts none (MAODV's join requests are not counted), and a
// +gossip stack's unicasts start some.
func TestRouteDiscoveriesCountUnicastRequests(t *testing.T) {
	for _, spec := range stack.Stacks() {
		cfg := goldenConfig()
		cfg.Stack = spec
		cfg.Seed = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Recovery == "" && res.RouteDiscoveries != 0 {
			t.Errorf("%v: %d route discoveries, want 0 on a bare stack", spec, res.RouteDiscoveries)
		}
		if spec.Recovery != "" && res.RouteDiscoveries == 0 {
			t.Errorf("%v: no route discovery in a run whose gossip unicasts need routes", spec)
		}
	}
}
