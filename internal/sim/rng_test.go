package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestRNGSameNameSameSequence: a stream is a function of its parent's
// seed and its name alone. Derive keeps the (parent seed, FNV-1a of the
// name) identity, and two streams derived alike from separate roots
// draw the same values through every method.
func TestRNGSameNameSameSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for _, name := range []string{"", "mac/1", "stack/39", "mobility"} {
			h := fnv.New64a()
			h.Write([]byte(name))
			want := seed ^ int64(h.Sum64())
			if want == 0 {
				want = int64(h.Sum64()) | 1
			}
			a, b := NewRNG(seed).Derive(name), NewRNG(seed).Derive(name)
			if a.seed != want || b.seed != want {
				t.Fatalf("Derive(%q) of seed %d has seed %d, want %d", name, seed, a.seed, want)
			}
			for i := range 200 {
				if x, y := a.Float64(), b.Float64(); x != y {
					t.Fatalf("seed %d %q draw %d: Float64 %v != %v", seed, name, i, x, y)
				}
				if x, y := a.Intn(1000), b.Intn(1000); x != y {
					t.Fatalf("seed %d %q draw %d: Intn %d != %d", seed, name, i, x, y)
				}
				if x, y := a.Duration(time.Second), b.Duration(time.Second); x != y {
					t.Fatalf("seed %d %q draw %d: Duration %v != %v", seed, name, i, x, y)
				}
			}
			if x, y := fmt.Sprint(a.Perm(16)), fmt.Sprint(b.Perm(16)); x != y {
				t.Fatalf("seed %d %q: Perm %s != %s", seed, name, x, y)
			}
		}
	}
}

// TestRNGSiblingStreamsUncorrelated: the streams a scenario derives
// for its nodes' MACs differ only in a name's last digits. Over 10⁴
// draws each, every pair of the 40 siblings "mac/1"…"mac/40" must
// correlate within 4/√N, four standard errors of independent streams,
// and no two may start with either PCG state word in common: streams
// that shared one word (say, a constant second word) would step the
// same low half of the LCG state in lockstep, which a correlation of
// outputs does not show.
func TestRNGSiblingStreamsUncorrelated(t *testing.T) {
	const streams, n = 40, 10000
	root := NewRNG(1)
	draws := make([][]float64, streams)
	words := map[string]string{}
	for i := range draws {
		name := fmt.Sprintf("mac/%d", i+1)
		g := root.Derive(name)
		state, err := g.pcg.MarshalBinary() // "pcg:", then the two words
		if err != nil {
			t.Fatal(err)
		}
		for w, word := range []string{string(state[4:12]), string(state[12:20])} {
			key := fmt.Sprintf("%d:%x", w, word)
			if other, ok := words[key]; ok {
				t.Errorf("%s and %s start with the same PCG word %d", other, name, w)
			}
			words[key] = name
		}
		d := make([]float64, n)
		for j := range d {
			d[j] = g.Float64()
		}
		draws[i] = d
	}
	bound := 4 / math.Sqrt(n)
	for i := range draws {
		for j := i + 1; j < streams; j++ {
			if r := correlation(draws[i], draws[j]); math.Abs(r) > bound {
				t.Errorf("mac/%d and mac/%d correlate at %.4f, bound ±%.4f", i+1, j+1, r, bound)
			}
		}
	}
}

// correlation is Pearson's r of two equal-length samples.
func correlation(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestRNGIsSmall: a stream is its seed and a 16-byte PCG, held by value.
// A scenario derives about a dozen per node, so this is most of what a
// node's randomness costs.
func TestRNGIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(RNG{}); size > 48 {
		t.Fatalf("RNG is %d bytes, want at most 48", size)
	}
}

var rngSink *RNG

// TestRNGAllocations: building a stream is one object, and drawing from
// one allocates nothing. Each count is one run of a whole loop, so it is
// the exact total and not AllocsPerRun's truncated mean.
func TestRNGAllocations(t *testing.T) {
	const runs = 100
	if n := testing.AllocsPerRun(1, func() {
		for range runs {
			rngSink = NewRNG(7)
		}
	}); n != runs {
		t.Fatalf("%d NewRNG calls allocate %v objects, want %d", runs, n, runs)
	}
	g := NewRNG(7)
	if n := testing.AllocsPerRun(1, func() {
		for range runs {
			rngSink = g.Derive("mac/12")
		}
	}); n != runs {
		t.Fatalf("%d Derive calls allocate %v objects, want %d", runs, n, runs)
	}
	weights := []float64{1, 0, 2}
	draws := map[string]func(){
		"Float64":       func() { g.Float64() },
		"Intn":          func() { g.Intn(7) },
		"Uniform":       func() { g.Uniform(1, 2) },
		"Duration":      func() { g.Duration(time.Second) },
		"DurationRange": func() { g.DurationRange(time.Second, 2*time.Second) },
		"Bool":          func() { g.Bool(0.5) },
		"WeightedIndex": func() { g.WeightedIndex(weights) },
	}
	for name, draw := range draws {
		if n := testing.AllocsPerRun(1, func() {
			for range runs {
				draw()
			}
		}); n != 0 {
			t.Errorf("%d %s draws allocate %v times, want 0", runs, name, n)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Derive("mobility")
	b := root.Derive("mac")
	c := root.Derive("mobility")
	if a.seed == b.seed {
		t.Fatal("different stream names produced the same seed")
	}
	if a.seed != c.seed {
		t.Fatal("same stream name produced different seeds")
	}
	// Derived streams replay identically.
	for i := 0; i < 50; i++ {
		if a.Float64() != c.Float64() {
			t.Fatal("derived streams with same name diverged")
		}
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	if got := g.Uniform(5, 5); got != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", got)
	}
	if got := g.Uniform(5, 2); got != 5 {
		t.Fatalf("Uniform(5,2) = %v, want lo", got)
	}
}

func TestRNGDurationBounds(t *testing.T) {
	g := NewRNG(2)
	if got := g.Duration(0); got != 0 {
		t.Fatalf("Duration(0) = %v, want 0", got)
	}
	if got := g.Duration(-time.Second); got != 0 {
		t.Fatalf("Duration(<0) = %v, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		v := g.Duration(80 * time.Second)
		if v < 0 || v >= 80*time.Second {
			t.Fatalf("Duration(80s) = %v out of range", v)
		}
	}
	for i := 0; i < 1000; i++ {
		v := g.DurationRange(time.Second, 2*time.Second)
		if v < time.Second || v >= 2*time.Second {
			t.Fatalf("DurationRange = %v out of range", v)
		}
	}
	if got := g.DurationRange(2*time.Second, time.Second); got != 2*time.Second {
		t.Fatalf("DurationRange(hi<lo) = %v, want lo", got)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	trues := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", frac)
	}
}

func TestWeightedIndex(t *testing.T) {
	g := NewRNG(4)
	if got := g.WeightedIndex(nil); got != -1 {
		t.Fatalf("WeightedIndex(nil) = %d, want -1", got)
	}
	if got := g.WeightedIndex([]float64{0, 0}); got != -1 {
		t.Fatalf("WeightedIndex(zeros) = %d, want -1", got)
	}
	if got := g.WeightedIndex([]float64{0, 3, 0}); got != 1 {
		t.Fatalf("WeightedIndex single positive = %d, want 1", got)
	}

	// Frequencies should be roughly proportional to weights.
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.WeightedIndex([]float64{1, 2, 1})]++
	}
	if f := float64(counts[1]) / n; f < 0.46 || f > 0.54 {
		t.Fatalf("weight-2 index frequency = %v, want ~0.5", f)
	}
	// Negative weights are ignored entirely.
	for i := 0; i < 1000; i++ {
		if got := g.WeightedIndex([]float64{-5, 1}); got != 1 {
			t.Fatalf("WeightedIndex with negative weight = %d, want 1", got)
		}
	}
}

// Property: WeightedIndex always returns an index with positive weight, for
// any weight vector containing at least one positive entry.
func TestWeightedIndexProperty(t *testing.T) {
	g := NewRNG(5)
	f := func(raw []float64) bool {
		anyPositive := false
		for _, w := range raw {
			if w > 0 {
				anyPositive = true
				break
			}
		}
		idx := g.WeightedIndex(raw)
		if !anyPositive {
			return idx == -1
		}
		return idx >= 0 && idx < len(raw) && raw[idx] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
