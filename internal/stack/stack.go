// Package stack is the closed table of protocol stacks: a multicast
// *routing* protocol (flood, maodv, odmrp) optionally layered under the
// Anonymous Gossip *recovery* layer, mirroring the paper's claim (§1,
// §7) that Anonymous Gossip is a generic reliability layer usable over
// any multicast routing protocol.
//
// Assemble builds one node's stack for a Spec such as
// {Routing: "flood", Recovery: "gossip"}; the simulated scenario and the
// live runtime both drive the Node it returns. Adding a stack means one
// entry in routings (or one recovery constant) and one case in Assemble.
package stack

import (
	"fmt"
	"slices"
	"strings"
)

// Spec names one protocol stack: a routing axis and an optional
// recovery axis. The zero value is "no stack selected".
type Spec struct {
	// Routing is the multicast routing protocol ("flood", "maodv",
	// "odmrp").
	Routing string
	// Recovery is the recovery layer ("gossip"); empty (or the explicit
	// "none") means bare routing.
	Recovery string
}

// IsZero reports whether no stack was selected.
func (s Spec) IsZero() bool { return s.Routing == "" && s.Recovery == "" }

// Normalize folds the explicit "none" recovery into the empty string
// and lower-cases both axes.
func (s Spec) Normalize() Spec {
	s.Routing = strings.ToLower(s.Routing)
	s.Recovery = strings.ToLower(s.Recovery)
	if s.Recovery == "none" {
		s.Recovery = ""
	}
	return s
}

// String returns the canonical stack name: "routing" for bare routing,
// "routing+recovery" otherwise. The name round-trips through ByName.
func (s Spec) String() string {
	s = s.Normalize()
	if s.Recovery == "" {
		return s.Routing
	}
	return s.Routing + "+" + s.Recovery
}

// routings lists the multicast routing protocols in table order; each
// has a case in Assemble.
var routings = []string{"flood", "maodv", "odmrp"}

// gossipRecovery names the one recovery layer, Anonymous Gossip.
const gossipRecovery = "gossip"

// aliases map the paper's figure labels and older CLI spellings onto
// their stacks.
var aliases = map[string]Spec{
	"gossip":       {Routing: "maodv", Recovery: gossipRecovery},
	"odmrp-gossip": {Routing: "odmrp", Recovery: gossipRecovery},
	"odmrp+ag":     {Routing: "odmrp", Recovery: gossipRecovery},
}

// Stacks lists every stack in table order: for each routing, bare
// first, then with the recovery layer.
func Stacks() []Spec {
	out := make([]Spec, 0, 2*len(routings))
	for _, rt := range routings {
		out = append(out, Spec{Routing: rt}, Spec{Routing: rt, Recovery: gossipRecovery})
	}
	return out
}

// Names lists the canonical name of every stack.
func Names() []string {
	specs := Stacks()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out
}

// ByName resolves a stack name — canonical ("odmrp+gossip", "flood") or
// an alias ("gossip") — to its Spec. Matching is case-insensitive. The
// error of an unknown name lists every stack.
func ByName(name string) (Spec, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	routing, recovery, _ := strings.Cut(key, "+")
	if s := (Spec{Routing: routing, Recovery: recovery}).Normalize(); Check(s) == nil {
		return s, nil
	}
	if alias, ok := aliases[key]; ok {
		return alias, nil
	}
	return Spec{}, fmt.Errorf("stack: unknown stack %q (stacks: %s)", name, known())
}

// Check reports whether s names a stack of the table. Its error lists
// every stack.
func Check(s Spec) error {
	s = s.Normalize()
	switch {
	case s.IsZero():
		return fmt.Errorf("stack: no stack selected (stacks: %s)", known())
	case !slices.Contains(routings, s.Routing):
		return fmt.Errorf("stack: unknown routing %q in stack %q (stacks: %s)", s.Routing, s, known())
	case s.Recovery != "" && s.Recovery != gossipRecovery:
		return fmt.Errorf("stack: unknown recovery %q in stack %q (stacks: %s)", s.Recovery, s, known())
	}
	return nil
}

// known joins every stack name for an error message.
func known() string { return strings.Join(Names(), ", ") }
