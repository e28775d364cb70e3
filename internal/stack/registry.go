package stack

import (
	"fmt"
	"strings"
)

// Spec names one protocol stack: a routing axis and an optional
// recovery axis. The zero value is "no stack selected".
type Spec struct {
	// Routing is the registered routing protocol name.
	Routing string
	// Recovery is the registered recovery protocol name; empty (or the
	// explicit "none") means bare routing.
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

// String returns the canonical registry name: "routing" for bare
// routing, "routing+recovery" otherwise. The name round-trips through
// ByName.
func (s Spec) String() string {
	s = s.Normalize()
	if s.Recovery == "" {
		return s.Routing
	}
	return s.Routing + "+" + s.Recovery
}

// Registry holds named Routing and Recovery builders plus name aliases.
// The zero value is ready to use. Protocol packages register into the
// package-level default registry from init; tests build their own.
type Registry struct {
	routings      map[string]Routing
	recoveries    map[string]Recovery
	aliases       map[string]Spec
	routingOrder  []string
	recoveryOrder []string
}

// RegisterRouting adds a routing builder under its Name. Registering an
// empty or duplicate name panics: it indicates mis-wired protocol
// packages at init time, never a runtime condition.
func (r *Registry) RegisterRouting(b Routing) {
	register("routing", &r.routings, &r.routingOrder, b)
}

// RegisterRecovery adds a recovery builder; same rules as RegisterRouting.
func (r *Registry) RegisterRecovery(b Recovery) {
	register("recovery", &r.recoveries, &r.recoveryOrder, b)
}

// register files b under its lower-cased name on one axis of a registry.
func register[B interface{ Name() string }](axis string, builders *map[string]B, order *[]string, b B) {
	name := strings.ToLower(b.Name())
	if name == "" || name == "none" {
		panic(fmt.Sprintf("stack: invalid %s name %q", axis, b.Name()))
	}
	if *builders == nil {
		*builders = make(map[string]B)
	}
	if _, dup := (*builders)[name]; dup {
		panic(fmt.Sprintf("stack: duplicate %s %q", axis, name))
	}
	(*builders)[name] = b
	*order = append(*order, name)
}

// RegisterAlias maps an alternative name (older CLI spellings, paper
// figure labels) onto a spec. Aliases are matched case-insensitively by
// ByName and never shadow canonical names.
func (r *Registry) RegisterAlias(name string, s Spec) {
	key := strings.ToLower(name)
	if key == "" {
		panic("stack: empty alias")
	}
	if r.aliases == nil {
		r.aliases = make(map[string]Spec)
	}
	if prev, dup := r.aliases[key]; dup && prev != s.Normalize() {
		panic(fmt.Sprintf("stack: alias %q already maps to %v", name, prev))
	}
	r.aliases[key] = s.Normalize()
}

// Stacks lists every composable stack — the cross product of the two
// axes — in deterministic order: for each routing (registration order),
// bare first, then each recovery.
func (r *Registry) Stacks() []Spec {
	out := make([]Spec, 0, len(r.routingOrder)*(1+len(r.recoveryOrder)))
	for _, rt := range r.routingOrder {
		out = append(out, Spec{Routing: rt})
		for _, rec := range r.recoveryOrder {
			out = append(out, Spec{Routing: rt, Recovery: rec})
		}
	}
	return out
}

// Names lists the canonical name of every registered stack.
func (r *Registry) Names() []string {
	specs := r.Stacks()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out
}

// ByName resolves a stack name — canonical ("odmrp+gossip", "flood") or
// a registered alias — to its Spec. Matching is case-insensitive. The
// error of an unknown name lists every registered stack.
func (r *Registry) ByName(name string) (Spec, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	routing, recovery, found := strings.Cut(key, "+")
	s := Spec{Routing: routing}
	if found {
		s.Recovery = recovery
	}
	s = s.Normalize()
	if _, _, err := r.Resolve(s); err == nil {
		return s, nil
	}
	if alias, ok := r.aliases[key]; ok {
		if _, _, err := r.Resolve(alias); err == nil {
			return alias, nil
		}
	}
	return Spec{}, fmt.Errorf("stack: unknown stack %q (registered: %s)",
		name, strings.Join(r.Names(), ", "))
}

// Resolve validates s against the registry and returns its builders.
// The recovery builder is nil for bare-routing stacks.
func (r *Registry) Resolve(s Spec) (Routing, Recovery, error) {
	s = s.Normalize()
	if s.IsZero() {
		return nil, nil, fmt.Errorf("stack: no stack selected (registered: %s)",
			strings.Join(r.Names(), ", "))
	}
	rt, ok := r.routings[s.Routing]
	if !ok {
		return nil, nil, fmt.Errorf("stack: unknown routing %q in stack %q (registered: %s)",
			s.Routing, s, strings.Join(r.Names(), ", "))
	}
	if s.Recovery == "" {
		return rt, nil, nil
	}
	rec, ok := r.recoveries[s.Recovery]
	if !ok {
		return nil, nil, fmt.Errorf("stack: unknown recovery %q in stack %q (registered: %s)",
			s.Recovery, s, strings.Join(r.Names(), ", "))
	}
	return rt, rec, nil
}

// Default is the process-wide registry the protocol packages populate
// at init time.
var Default = &Registry{}

// RegisterRouting adds a routing builder to the default registry.
func RegisterRouting(b Routing) { Default.RegisterRouting(b) }

// RegisterRecovery adds a recovery builder to the default registry.
func RegisterRecovery(b Recovery) { Default.RegisterRecovery(b) }

// RegisterAlias adds a name alias to the default registry.
func RegisterAlias(name string, s Spec) { Default.RegisterAlias(name, s) }

// Stacks lists every stack composable from the default registry.
func Stacks() []Spec { return Default.Stacks() }

// Names lists the canonical stack names of the default registry.
func Names() []string { return Default.Names() }

// ByName resolves a name or alias against the default registry.
func ByName(name string) (Spec, error) { return Default.ByName(name) }
