package flood

import (
	"testing"
	"time"

	"anongossip/internal/pkt"
)

// TestRelayTreeTracksAndExpires exercises the gossip walk substrate the
// flood+gossip stack runs over: nodes heard flooding data become walk
// links (deterministically ordered, unknown distance) and expire
// RelayLifetime after the last frame.
func TestRelayTreeTracksAndExpires(t *testing.T) {
	w := buildF(t, line(3), []int{0, 2})
	for _, r := range w.routers {
		r.GossipTree() // a recovery layer binding switches tracking on
	}
	w.sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.sched.Run(3 * time.Second)

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
	w.sched.Run(w.sched.Now() + w.routers[1].cfg.RelayLifetime + time.Second)
	if left := tree.NextHops(group); len(left) != 0 {
		t.Fatalf("relay links survived expiry: %v", left)
	}
	if len(w.routers[1].relays) != 0 {
		t.Fatalf("expired relays not pruned: %v", w.routers[1].relays)
	}
}

// TestRelayTrackingDisabled checks the substrate stays off until a
// recovery layer takes it (bare flooding pays nothing on the data hot
// path).
func TestRelayTrackingDisabled(t *testing.T) {
	w := buildF(t, line(3), []int{0, 2})
	w.sched.After(time.Second, func() {
		if _, err := w.routers[0].SendData(group); err != nil {
			t.Errorf("SendData: %v", err)
		}
	})
	w.sched.Run(3 * time.Second)
	for i, r := range w.routers {
		if len(r.relays) != 0 {
			t.Fatalf("node %d tracked relays with tracking disabled: %v", i, r.relays)
		}
	}
}
