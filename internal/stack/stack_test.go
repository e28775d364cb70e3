package stack

import (
	"slices"
	"strings"
	"testing"
)

func TestStacksCrossProduct(t *testing.T) {
	want := []string{"flood", "flood+gossip", "maodv", "maodv+gossip", "odmrp", "odmrp+gossip"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, s := range Stacks() {
		if s != s.Normalize() {
			t.Fatalf("Stacks()[%d] = %#v is not normalized", i, s)
		}
	}
}

func TestByNameAndRoundTrip(t *testing.T) {
	for _, s := range Stacks() {
		got, err := ByName(s.String())
		if err != nil {
			t.Fatalf("ByName(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round-trip %q: got %v, want %v", s.String(), got, s)
		}
	}
	maodvAG := Spec{Routing: "maodv", Recovery: "gossip"}
	odmrpAG := Spec{Routing: "odmrp", Recovery: "gossip"}
	cases := map[string]Spec{
		"flood":          {Routing: "flood"},
		"Flood":          {Routing: "flood"},
		"maodv+none":     {Routing: "maodv"},
		" odmrp+gossip ": odmrpAG,
		"FLOOD+GOSSIP":   {Routing: "flood", Recovery: "gossip"},
		"gossip":         maodvAG,
		"Gossip":         maodvAG,
		"odmrp-gossip":   odmrpAG,
		"odmrp+ag":       odmrpAG,
		"ODMRP+AG":       odmrpAG,
	}
	for name, want := range cases {
		got, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ByName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestByNameUnknownListsRegistered(t *testing.T) {
	for _, bad := range []string{"carrier-pigeon", "flood+carrier", "bogus+gossip", "none", ""} {
		_, err := ByName(bad)
		if err == nil {
			t.Fatalf("ByName(%q) accepted", bad)
		}
		for _, name := range Names() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error for %q does not list stack %q: %v", bad, name, err)
			}
		}
	}
}

func TestSpecNormalizeAndString(t *testing.T) {
	if got := (Spec{Routing: "MAODV", Recovery: "None"}).String(); got != "maodv" {
		t.Fatalf("String() = %q, want %q", got, "maodv")
	}
	if got := (Spec{Routing: "odmrp", Recovery: "Gossip"}).String(); got != "odmrp+gossip" {
		t.Fatalf("String() = %q, want %q", got, "odmrp+gossip")
	}
	if got := (Spec{Routing: "Flood", Recovery: "NONE"}).Normalize(); got != (Spec{Routing: "flood"}) {
		t.Fatalf("Normalize() = %#v, want bare flood", got)
	}
	if !(Spec{}).IsZero() {
		t.Fatal("zero spec not IsZero")
	}
	if (Spec{Routing: "flood"}).IsZero() {
		t.Fatal("non-zero spec IsZero")
	}
}
