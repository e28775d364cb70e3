// Package flood implements plain flooding multicast, the approach of the
// paper's related work [13] (Ho et al., "Flooding for Reliable Multicast
// in Multi-Hop Ad-Hoc Networks") in its basic, non-hyper variant: every
// node rebroadcasts every data packet exactly once.
//
// It serves as a baseline for the ablation benchmarks: flooding is robust
// to mobility (no structures to repair) but generates a transmission per
// node per packet, congesting the medium exactly as the paper's related
// work section argues.
package flood

import (
	"errors"
	"time"

	"anongossip/internal/gossip"
	"anongossip/internal/node"
	"anongossip/internal/pkt"
	"anongossip/internal/runtime"
	"anongossip/internal/sim"
)

// Config parameterises the flooding protocol.
type Config struct {
	// RebroadcastJitter spreads rebroadcasts to avoid synchronised
	// collisions among neighbours (the classic broadcast-storm
	// mitigation).
	RebroadcastJitter time.Duration
	// CacheSize bounds the duplicate-suppression cache.
	CacheSize int
	// PayloadLen is the synthetic application payload size.
	PayloadLen uint16
	// RelayLifetime is how long a neighbour heard flooding data stays a
	// valid gossip walk link (see NextHops). Zero disables tracking.
	RelayLifetime time.Duration
}

// DefaultConfig returns flooding defaults matched to the paper's
// workload.
func DefaultConfig() Config {
	return Config{
		RebroadcastJitter: 10 * time.Millisecond,
		CacheSize:         1024,
		PayloadLen:        64,
		RelayLifetime:     10 * time.Second,
	}
}

// Stats counts flooding activity at one node.
type Stats struct {
	DataSent        uint64
	DataDelivered   uint64
	DataRebroadcast uint64
	DataDuplicates  uint64
}

// Router is one node's flooding entity.
type Router struct {
	cfg   Config
	stack *node.Stack
	sched runtime.Clock
	rng   *sim.RNG

	members map[pkt.GroupID]bool
	seen    node.SeqCache
	seq     uint32

	// relays maps neighbours recently heard transmitting data to the
	// expiry of that evidence. Flooding keeps no routing structure, so
	// these data-plane links are the walkable substrate a gossip
	// recovery layer biases its anonymous walks over. Recording only
	// happens once trackRelays is set (a recovery layer took the
	// substrate); bare flooding pays nothing on the data hot path.
	relays      map[pkt.NodeID]sim.Time
	trackRelays bool

	subs  []func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)
	stats Stats
}

// New builds a flooding router bound to the node stack.
// A non-positive CacheSize panics: the duplicate ring needs a slot.
func New(st *node.Stack, rng *sim.RNG, cfg Config) *Router {
	if cfg.CacheSize <= 0 {
		panic("flood: CacheSize must be positive")
	}
	r := &Router{
		cfg:     cfg,
		stack:   st,
		sched:   st.Clock(),
		rng:     rng,
		members: make(map[pkt.GroupID]bool),
		seen:    node.NewSeqCache(cfg.CacheSize),
		relays:  make(map[pkt.NodeID]sim.Time),
	}
	st.Handle(pkt.KindData, r.onData)
	return r
}

// OnDeliver subscribes to member deliveries.
func (r *Router) OnDeliver(fn func(g pkt.GroupID, d *pkt.Data, from pkt.NodeID)) {
	r.subs = append(r.subs, fn)
}

// Stats returns a copy of the counters.
func (r *Router) Stats() Stats { return r.stats }

// Delivered counts unique data packets delivered to the member.
func (r *Router) Delivered() uint64 { return r.stats.DataDelivered }

// Join registers group membership (delivery only; flooding needs no
// routing state).
func (r *Router) Join(g pkt.GroupID) { r.members[g] = true }

// Leave revokes membership.
func (r *Router) Leave(g pkt.GroupID) { delete(r.members, g) }

// IsMember reports membership (part of the gossip Tree interface).
func (r *Router) IsMember(g pkt.GroupID) bool { return r.members[g] }

// GossipTree exposes the relay table as an AG walk substrate, switching
// relay tracking on for this node.
func (r *Router) GossipTree() gossip.Tree {
	r.trackRelays = true
	return r
}

// NextHops returns the live relays (part of the gossip Tree interface).
// Flooding has no tree and no nearest-member machinery, so the walk
// degrades to uniform choice over recently heard relays, as over
// ODMRP's mesh.
func (r *Router) NextHops(pkt.GroupID) []gossip.NextHop {
	return gossip.LiveHops(r.relays, r.sched.Now())
}

// ErrNotMember reports a SendData call from a non-member.
var ErrNotMember = errors.New("flood: node is not a member of the group")

// SendData floods one application payload to the group.
func (r *Router) SendData(g pkt.GroupID) (pkt.SeqKey, error) {
	if !r.members[g] {
		return pkt.SeqKey{}, ErrNotMember
	}
	r.seq++
	d := &pkt.Data{Group: g, Origin: r.stack.ID(), Seq: r.seq, PayloadLen: r.cfg.PayloadLen}
	r.seen.Add(d.Key())
	r.stats.DataSent++
	r.stack.SendBroadcast(pkt.NewPacket(r.stack.ID(), pkt.Broadcast, d))
	return d.Key(), nil
}

func (r *Router) onData(p *pkt.Packet, from pkt.NodeID) {
	d, ok := p.Body.(*pkt.Data)
	if !ok {
		return
	}
	if r.trackRelays && r.cfg.RelayLifetime > 0 && from != r.stack.ID() {
		r.relays[from] = r.sched.Now() + r.cfg.RelayLifetime
	}
	if !r.seen.Add(d.Key()) {
		r.stats.DataDuplicates++
		return
	}
	if r.members[d.Group] {
		r.stats.DataDelivered++
		for _, fn := range r.subs {
			fn(d.Group, d, from)
		}
	}
	if r.stack.Rebroadcast(p, r.rng, r.cfg.RebroadcastJitter) != nil {
		r.stats.DataRebroadcast++
	}
}
