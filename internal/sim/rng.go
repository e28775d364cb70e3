package sim

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// RNG is a deterministic random number generator with support for derived
// sub-streams. Deriving a stream by name decouples the random sequences
// consumed by independent components (mobility, MAC backoff, protocol
// choices): adding a random draw in one component does not perturb the
// others, which keeps experiments comparable across code changes.
//
// The backing math/rand source (a ~4.8 KiB lagged-Fibonacci table) is
// allocated on the first draw, not at construction: a scenario derives
// a dozen streams per node but many — Derive-only intermediates,
// protocol jitter on nodes that never forward — are never drawn from,
// and at 100k nodes the unused tables were the largest single heap
// consumer. Laziness is invisible to callers: the first draw seeds the
// source exactly as eager construction did, so sequences are
// bit-identical.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the backing generator, allocating it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Derive returns an independent sub-stream identified by name. The mapping
// (seed, name) -> sub-seed is stable across runs.
func (g *RNG) Derive(name string) *RNG {
	h := fnv.New64a()
	// Hash writes never fail.
	_, _ = h.Write([]byte(name))
	sub := g.seed ^ int64(h.Sum64())
	// Avoid the degenerate all-zero seed.
	if sub == 0 {
		sub = int64(h.Sum64()) | 1
	}
	return NewRNG(sub)
}

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Uniform returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.src().Float64()
}

// Duration returns a uniform duration in [0, max). If max <= 0 it returns 0.
func (g *RNG) Duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(g.src().Int63n(int64(max)))
}

// DurationRange returns a uniform duration in [lo, hi). If hi <= lo it
// returns lo.
func (g *RNG) DurationRange(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.src().Int63n(int64(hi-lo)))
}

// Bool returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return g.src().Float64() < p
	}
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// WeightedIndex picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero.
// It returns -1 if the slice is empty or all weights are zero.
func (g *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := g.src().Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
