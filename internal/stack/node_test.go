package stack

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"anongossip/internal/flood"
	"anongossip/internal/gossip"
	"anongossip/internal/maodv"
	"anongossip/internal/node"
	"anongossip/internal/odmrp"
	"anongossip/internal/pkt"
	"anongossip/internal/sim"
	"anongossip/internal/testworld"
)

const testGroup pkt.GroupID = 0xE0000001

// errNotMember is each routing's refusal of a non-member's send.
var errNotMember = map[string]error{
	"flood": flood.ErrNotMember,
	"maodv": maodv.ErrNotMember,
	"odmrp": odmrp.ErrNotMember,
}

// stackRun is a line of three static nodes 50 m apart (75 m range) that
// all run spec s: the ends are members, the middle a relay. The first
// member publishes once per 200 ms from 20 s to 30 s.
type stackRun struct {
	*testworld.World
	nodes     []*Node
	recovered []int // per node: deliveries flagged recovered
	plain     []int // per node: deliveries not flagged recovered
}

func runStack(t *testing.T, s Spec) *stackRun {
	t.Helper()
	root := sim.NewRNG(5)
	w := &stackRun{World: testworld.New(t, 75, testworld.Static(testworld.Line(3, 50)...), func(id pkt.NodeID) *sim.RNG {
		return root.Derive(fmt.Sprintf("stack/%d", id-1))
	}), recovered: make([]int, 3), plain: make([]int, 3)}
	for i, rt := range w.MACs {
		n, err := Assemble(s, node.NewOnRuntime(rt), root, i, gossip.DefaultConfig())
		if err != nil {
			t.Fatalf("Assemble(%v): %v", s, err)
		}
		if n.Spec() != s.Normalize() {
			t.Fatalf("Spec() = %#v, want the normalized %#v", n.Spec(), s.Normalize())
		}
		n.OnDeliver(func(_ pkt.GroupID, _ *pkt.Data, recovered bool) {
			if recovered {
				w.recovered[i]++
			} else {
				w.plain[i]++
			}
		})
		n.Start()
		w.nodes = append(w.nodes, n)
	}
	// A send before joining is refused by the routing, on every stack.
	if _, err := w.nodes[0].Publish(testGroup); !errors.Is(err, errNotMember[s.Normalize().Routing]) {
		t.Fatalf("%v: non-member Publish err = %v, want the routing's ErrNotMember", s, err)
	}
	w.Sched.At(50*time.Millisecond, func() { w.nodes[0].Join(testGroup) })
	w.Sched.At(8*time.Second, func() { w.nodes[2].Join(testGroup) })
	for at := 20 * time.Second; at <= 30*time.Second; at += 200 * time.Millisecond {
		w.Sched.At(at, func() {
			if _, err := w.nodes[0].Publish(testGroup); err != nil {
				t.Errorf("%v: member Publish: %v", s, err)
			}
		})
	}
	w.Sched.Run(40 * time.Second)
	return w
}

// TestAssembleBareNode assembles every bare stack of the table: routing
// alone delivers, never flagged recovered, and RecoveryStats is the
// routing's count at 100 % goodput. Only MAODV builds (and starts) AODV.
func TestAssembleBareNode(t *testing.T) {
	for _, s := range Stacks() {
		if s.Recovery != "" {
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			// Spelled the way a caller may: upper case, explicit "none".
			w := runStack(t, Spec{Routing: strings.ToUpper(s.Routing), Recovery: "None"})
			n := w.nodes[2]
			if n.eng != nil {
				t.Fatal("bare stack built a recovery layer")
			}
			if (n.uni != nil) != (s.Routing == "maodv") {
				t.Fatalf("AODV substrate built = %v on %v", n.uni != nil, s)
			}
			if w.plain[2] == 0 {
				t.Fatal("member received nothing")
			}
			for i, r := range w.recovered {
				if r != 0 {
					t.Fatalf("node %d: %d deliveries flagged recovered on a bare stack", i+1, r)
				}
			}
			want := RecoveryStats{Delivered: n.routing.Delivered(), Goodput: 100}
			if rs := n.RecoveryStats(); rs != want {
				t.Fatalf("RecoveryStats = %+v, want %+v", rs, want)
			}
			if want.Delivered != uint64(w.plain[2]) {
				t.Fatalf("routing counted %d deliveries, subscriber saw %d", want.Delivered, w.plain[2])
			}
		})
	}
}

// TestAssembleComposedNode assembles every gossip stack of the table:
// the engine is the delivery source, every member runs rounds, and the
// counters are the engine's. Every composed stack has an AODV substrate
// for the replies.
func TestAssembleComposedNode(t *testing.T) {
	for _, s := range Stacks() {
		if s.Recovery == "" {
			continue
		}
		t.Run(s.String(), func(t *testing.T) {
			w := runStack(t, s)
			n := w.nodes[2]
			if n.eng == nil || n.uni == nil {
				t.Fatalf("composed stack built engine %v, AODV %v", n.eng != nil, n.uni != nil)
			}
			rs := n.RecoveryStats()
			if got := uint64(w.plain[2] + w.recovered[2]); rs.Delivered != got || rs.Delivered == 0 {
				t.Fatalf("RecoveryStats.Delivered = %d, subscriber saw %d", rs.Delivered, got)
			}
			if rs.Recovered != uint64(w.recovered[2]) || rs.Recovered != rs.ReplyNew {
				t.Fatalf("RecoveryStats = %+v, subscriber saw %d recovered", rs, w.recovered[2])
			}
			if rs.Rounds == 0 {
				t.Fatal("member ran no gossip rounds")
			}
			if relay := w.nodes[1].RecoveryStats(); relay.Rounds != 0 || relay.Delivered != 0 {
				t.Fatalf("non-member relay reports %+v", relay)
			}
		})
	}
}

// TestAssembleErrors rejects a zero or unknown spec, naming all six
// stacks.
func TestAssembleErrors(t *testing.T) {
	bad := []Spec{{}, {Routing: "carrier-pigeon"}, {Routing: "flood", Recovery: "carrier"}, {Recovery: "gossip"}}
	for _, s := range bad {
		n, err := Assemble(s, nil, nil, 0, gossip.DefaultConfig())
		if err == nil || n != nil {
			t.Fatalf("Assemble(%#v) = %v, %v; want an error", s, n, err)
		}
		for _, name := range Names() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error for %#v does not name stack %q: %v", s, name, err)
			}
		}
	}
}
