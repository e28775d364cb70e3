package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"anongossip/internal/pkt"
)

func ev(node pkt.NodeID, kind pkt.Kind, at time.Duration) Event {
	return Event{At: at, Node: node, Op: OpSend, Kind: kind, Src: node, Dst: 2, Peer: 2, Size: 40}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(ev(pkt.NodeID(i), pkt.KindHello, time.Duration(i)*time.Second))
	}
	if r.total != 5 || r.Len() != 3 {
		t.Fatalf("total=%d len=%d, want 5, 3", r.total, r.Len())
	}
	events := r.Events()
	for i, e := range events {
		if want := pkt.NodeID(i + 3); e.Node != want {
			t.Fatalf("event %d node = %v, want %v (order %v)", i, e.Node, want, events)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(10)
	r.Record(ev(1, pkt.KindHello, time.Second))
	r.Record(ev(2, pkt.KindData, 2*time.Second))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	events := r.Events()
	if len(events) != 2 || events[0].Node != 1 || events[1].Node != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := NewRing(0)
	r.Record(ev(1, pkt.KindHello, 0))
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (clamped capacity)", r.Len())
	}
}

// TestRingGrowsAsRecorded: a ring allocates as events arrive, not its
// whole capacity up front. A capacity whose byte size overflows int made
// NewRing's allocation panic before the first event was recorded.
func TestRingGrowsAsRecorded(t *testing.T) {
	r := NewRing(math.MaxInt / 8)
	for i := 1; i <= 3; i++ {
		r.Record(ev(pkt.NodeID(i), pkt.KindData, time.Duration(i)*time.Second))
	}
	events := r.Events()
	if r.Len() != 3 || len(events) != 3 || events[0].Node != 1 || events[2].Node != 3 {
		t.Fatalf("Len = %d, events = %v, want nodes 1..3", r.Len(), events)
	}
}

func TestDumpAndSummary(t *testing.T) {
	r := NewRing(10)
	r.Record(ev(1, pkt.KindData, 1500*time.Millisecond))
	r.Record(ev(1, pkt.KindGossipReq, 2*time.Second))

	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "DATA") || !strings.Contains(out, "GOSSIP-REQ") {
		t.Fatalf("dump missing kinds:\n%s", out)
	}
	if !strings.Contains(out, "1.500000s") {
		t.Fatalf("dump missing timestamp:\n%s", out)
	}

	sum := r.Summary()
	if !strings.Contains(sum, "DATA=1") || !strings.Contains(sum, "GOSSIP-REQ=1") {
		t.Fatalf("summary = %q", sum)
	}
}

// TestSummaryCountsODMRPKinds records ODMRP's JOIN-QUERY and JOIN-REPLY
// (kinds 32 and 33, past the gossip kinds): the summary must count them,
// as Len and the total do.
func TestSummaryCountsODMRPKinds(t *testing.T) {
	r := NewRing(10)
	r.Record(ev(1, pkt.KindJoinQuery, 0))
	r.Record(ev(2, pkt.KindJoinQuery, 0))
	r.Record(ev(2, pkt.KindJoinReply, 0))
	sum := r.Summary()
	if !strings.Contains(sum, "JOIN-QUERY=2") || !strings.Contains(sum, "JOIN-REPLY=1") {
		t.Fatalf("summary = %q, want JOIN-QUERY=2 and JOIN-REPLY=1", sum)
	}
}

func TestOpStrings(t *testing.T) {
	if OpSend.String() != "SEND" || OpForward.String() != "FWD" || OpDeliver.String() != "RECV" {
		t.Fatal("op names changed")
	}
	if Op(99).String() != "OP(99)" {
		t.Fatal("unknown op formatting")
	}
}

// Property: the ring never exceeds capacity and Events() returns
// chronologically ordered entries when recorded in order.
func TestRingBoundedProperty(t *testing.T) {
	f := func(n uint8, capacity uint8) bool {
		capn := int(capacity%32) + 1
		r := NewRing(capn)
		for i := 0; i < int(n); i++ {
			r.Record(ev(1, pkt.KindData, time.Duration(i)*time.Millisecond))
		}
		events := r.Events()
		if len(events) > capn {
			return false
		}
		for i := 1; i < len(events); i++ {
			if events[i].At < events[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
