package sim

import (
	"math/rand/v2"
	"time"
)

// RNG is a deterministic random number generator with support for derived
// sub-streams. Deriving a stream by name decouples the random sequences
// consumed by independent components (mobility, MAC backoff, protocol
// choices): adding a random draw in one component does not perturb the
// others, which keeps experiments comparable across code changes.
//
// The backing source is a 16-byte PCG (math/rand/v2) held by value, so a
// stream is one 24-byte object built at construction. A scenario derives
// about a dozen streams per node, so a stream's size is a visible share
// of a node's memory at 10k nodes and more.
type RNG struct {
	seed int64
	pcg  rand.PCG
}

// NewRNG returns a generator seeded with seed. Both PCG words are
// splitmix64 outputs of seed, so nearby seeds (and the seeds Derive
// makes, which differ only in their name hash) start far apart in both
// words.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	s := uint64(seed)
	hi := splitmix64(&s)
	g.pcg.Seed(hi, splitmix64(&s))
	return g
}

// splitmix64 advances *s and returns its next output (Steele, Lea and
// Flood, "Fast Splittable Pseudorandom Number Generators", 2014).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Derive returns an independent sub-stream identified by name. The mapping
// (seed, name) -> sub-seed is seed XOR the 64-bit FNV-1a hash of name,
// stable across runs.
func (g *RNG) Derive(name string) *RNG {
	h := fnv64a(name)
	sub := g.seed ^ int64(h)
	// Avoid the degenerate all-zero seed.
	if sub == 0 {
		sub = int64(h) | 1
	}
	return NewRNG(sub)
}

// fnv64a is hash/fnv's New64a over name, without its allocations.
func fnv64a(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// std wraps the stream in the standard library's draw methods. The
// wrapper does not escape, so it lives on the caller's stack.
func (g *RNG) std() *rand.Rand { return rand.New(&g.pcg) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.std().Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.std().IntN(n) }

// Uniform returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.Float64()
}

// Duration returns a uniform duration in [0, max). If max <= 0 it returns 0.
func (g *RNG) Duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(g.std().Int64N(int64(max)))
}

// DurationRange returns a uniform duration in [lo, hi). If hi <= lo it
// returns lo.
func (g *RNG) DurationRange(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + g.Duration(hi-lo)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return g.Float64() < p
	}
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.std().Perm(n) }

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
	x := g.Float64() * total
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
