package flood

import (
	"testing"
	"time"

	"anongossip/internal/pkt"
	"anongossip/internal/testworld"
)

// TestRelayTreeTracksAndExpires exercises the gossip walk substrate the
// flood+gossip stack runs over: nodes heard flooding data become walk
// links (deterministically ordered, unknown distance) and expire
// RelayLifetime after the last frame.
func TestRelayTreeTracksAndExpires(t *testing.T) {
	w := buildF(t, testworld.Line(3, 50), []int{0, 2})
	for _, r := range w.routers {
		r.GossipTree() // a recovery layer binding switches tracking on
	}
	w.Sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.Sched.Run(3 * time.Second)

	tree := w.routers[1]
	hops := tree.NextHops(group)
	if len(hops) == 0 {
		t.Fatal("middle node heard data but exposes no relay links")
	}
	for i, h := range hops {
		if h.Nearest != pkt.NearestUnknown {
			t.Fatalf("relay %v advertises distance %d, want NearestUnknown", h.ID, h.Nearest)
		}
		if i > 0 && hops[i-1].ID >= h.ID {
			t.Fatalf("relay links not sorted by node ID: %v", hops)
		}
	}
	if tree.IsMember(group) {
		t.Fatal("non-member relay claims membership")
	}
	if !w.routers[2].IsMember(group) {
		t.Fatal("member denies membership")
	}

	// Links expire RelayLifetime after the last heard frame.
	w.Sched.Run(w.Sched.Now() + w.routers[1].cfg.RelayLifetime + time.Second)
	if left := tree.NextHops(group); len(left) != 0 {
		t.Fatalf("relay links survived expiry: %v", left)
	}
	if n := w.routers[1].relays.Len(); n != 0 {
		t.Fatalf("%d expired relays not pruned", n)
	}
}

// TestRelayTrackingDisabled checks the substrate stays off until a
// recovery layer takes it (bare flooding pays nothing on the data hot
// path).
func TestRelayTrackingDisabled(t *testing.T) {
	w := buildF(t, testworld.Line(3, 50), []int{0, 2})
	w.Sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.Sched.Run(3 * time.Second)
	for i, r := range w.routers {
		if n := r.relays.Len(); n != 0 {
			t.Fatalf("node %d tracked %d relays with tracking disabled", i, n)
		}
	}
}
