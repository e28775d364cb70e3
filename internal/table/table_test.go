package table

import (
	"maps"
	"math/bits"
	"math/rand"
	"testing"
)

// fibInv is fib's inverse modulo 2⁶⁴ (fib is odd, so it has one):
// keyFor(h) is the key whose hash is h, which lets a test aim keys at
// chosen home slots.
var fibInv = func() uint64 {
	inv := uint64(fib) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - fib*inv
	}
	return inv
}()

func keyFor(hash uint64) uint64 { return hash * fibInv }

// keyPool returns the keys the differential scripts draw from: three
// clusters that share a home slot at every table size up to 2¹² slots
// — at the first slot, in the middle, and at the last slot, whose
// probe runs wrap around — plus 0, the all-ones key and random keys.
func keyPool(rng *rand.Rand, random int) []uint64 {
	pool := []uint64{0, ^uint64(0)}
	for j := uint64(0); j < 12; j++ {
		pool = append(pool, keyFor(j), keyFor(1<<63|j), keyFor(^j))
	}
	for i := 0; i < random; i++ {
		pool = append(pool, rng.Uint64())
	}
	return pool
}

// checker drives a Table and a builtin map through the same operations
// and fails on the first disagreement.
type checker struct {
	t   testing.TB
	tab Table[uint64]
	ref map[uint64]uint64
}

func newChecker(t testing.TB) *checker { return &checker{t: t, ref: map[uint64]uint64{}} }

func (c *checker) put(k, v uint64) {
	c.tab.Put(k, v)
	c.ref[k] = v
	c.get(k)
}

func (c *checker) get(k uint64) {
	c.t.Helper()
	got, ok := c.tab.Get(k)
	want, wantOK := c.ref[k]
	if got != want || ok != wantOK {
		c.t.Fatalf("Get(%#x) = %d, %v; map says %d, %v", k, got, ok, want, wantOK)
	}
	if p := c.tab.Ref(k); (p != nil) != wantOK || (p != nil && *p != want) {
		c.t.Fatalf("Ref(%#x) disagrees with the map (%d, %v)", k, want, wantOK)
	}
}

func (c *checker) del(k uint64) {
	c.t.Helper()
	_, want := c.ref[k]
	if got := c.tab.Delete(k); got != want {
		c.t.Fatalf("Delete(%#x) = %v, map held it: %v", k, got, want)
	}
	delete(c.ref, k)
	c.get(k)
}

// all checks the full contents through All, and the layout invariants:
// a power-of-two slot count, load at most ¾, the bitmap counting Len
// entries, and every entry reachable from its home slot without
// crossing an empty one — what backward-shift delete must preserve.
func (c *checker) all() {
	c.t.Helper()
	got := map[uint64]uint64{}
	for k, v := range c.tab.All() {
		if _, dup := got[k]; dup {
			c.t.Fatalf("All yielded %#x twice", k)
		}
		got[k] = *v
	}
	if !maps.Equal(got, c.ref) || c.tab.Len() != len(c.ref) {
		c.t.Fatalf("All yielded %d entries (Len %d), map holds %d", len(got), c.tab.Len(), len(c.ref))
	}
	tb := &c.tab
	slots := len(tb.keys)
	if slots == 0 {
		return
	}
	pop := 0
	for _, w := range tb.used {
		pop += bits.OnesCount64(w)
	}
	if slots&(slots-1) != 0 || pop != tb.n || 4*tb.n > 3*slots || len(tb.vals) != slots {
		c.t.Fatalf("layout: %d slots, %d bits set, Len %d", slots, pop, tb.n)
	}
	mask := slots - 1
	for i := 0; i < slots; i++ {
		if !tb.occupied(i) {
			continue
		}
		for j := tb.home(tb.keys[i]); j != i; j = (j + 1) & mask {
			if !tb.occupied(j) {
				c.t.Fatalf("key %#x in slot %d unreachable from home %d: slot %d is empty", tb.keys[i], i, tb.home(tb.keys[i]), j)
			}
		}
	}
}

// run interprets script two bytes per operation: an opcode (put, get,
// delete, check everything) and an index into pool.
func (c *checker) run(script []byte, pool []uint64) {
	for i := 0; i+1 < len(script); i += 2 {
		k := pool[int(script[i+1])%len(pool)]
		switch script[i] % 4 {
		case 0:
			c.put(k, uint64(i))
		case 1:
			c.get(k)
		case 2:
			c.del(k)
		case 3:
			c.all()
		}
	}
	c.all()
}

// TestTableMatchesMap is the table's differential test against a
// builtin map: random put/get/delete sequences over clustered keys that
// force long probe runs, wraparound and backward shifts, through growth
// from 8 to thousands of slots and back down to empty.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := keyPool(rng, 3000)
		c := newChecker(t)
		for op := 0; op < 40000; op++ {
			k := pool[rng.Intn(len(pool))]
			if op < 20000 && rng.Intn(4) != 0 || op >= 20000 && rng.Intn(4) == 0 {
				c.put(k, rng.Uint64())
			} else {
				c.del(k)
			}
			if op%997 == 0 {
				c.all()
			}
		}
		for k := range maps.Clone(c.ref) {
			c.del(k)
		}
		c.all()
		if c.tab.Len() != 0 {
			t.Fatalf("seed %d: emptied table has Len %d", seed, c.tab.Len())
		}
	}
}

// TestTableEveryKeyLegal: the keys a sentinel design would reserve — 0
// and all-ones — are stored, found, overwritten and deleted like any
// other, beside neighbours that share their home slot.
func TestTableEveryKeyLegal(t *testing.T) {
	c := newChecker(t)
	pool := keyPool(rand.New(rand.NewSource(1)), 0)
	for _, k := range pool {
		c.put(k, ^k)
	}
	c.all()
	for _, k := range []uint64{0, ^uint64(0)} {
		c.put(k, 7)
		c.del(k)
		c.get(k)
		c.put(k, 8)
	}
	c.all()
}

// TestTableZeroValue: the zero Table answers every query without
// storage, and only an insert allocates it.
func TestTableZeroValue(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Get(^uint64(0)); ok || tab.Ref(0) != nil || tab.Delete(3) || tab.Len() != 0 {
		t.Fatal("the zero table claims an entry")
	}
	for range tab.All() {
		t.Fatal("the zero table yielded an entry")
	}
	if tab.keys != nil || tab.vals != nil || tab.used != nil {
		t.Fatal("a query allocated storage")
	}
	if v, added := tab.Insert(5); !added || *v != 0 || len(tab.keys) != minSlots {
		t.Fatalf("first Insert: added %v, value %d, %d slots", added, *v, len(tab.keys))
	}
}

// TestTableAllocs: lookups, overwrites and deletes allocate nothing,
// and neither does re-inserting into a table that churns at a steady
// size.
func TestTableAllocs(t *testing.T) {
	var tab Table[uint64]
	for k := uint64(0); k < 100; k++ {
		tab.Put(k, k)
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		k = (k + 1) % 100
		tab.Get(k)
		tab.Put(k, k+1)
		tab.Delete(k)
		tab.Put(k, k)
	}); n != 0 {
		t.Fatalf("steady-state Get/Put/Delete allocate %v times per run, want 0", n)
	}
}

// TestTableReserve: a table reserved for n entries takes n keys without
// a resize, a reservation keeps what the table holds, one the table
// already has room for changes nothing, and a reservation of none
// allocates no storage.
func TestTableReserve(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 24, 25, 100} {
		c := newChecker(t)
		c.tab.Reserve(n)
		slots := len(c.tab.keys)
		if n == 0 && slots != 0 {
			t.Errorf("Reserve(0) made %d slots", slots)
		}
		for k := uint64(0); k < uint64(n); k++ {
			c.put(keyFor(k), k)
		}
		if len(c.tab.keys) != slots {
			t.Errorf("Reserve(%d) made %d slots, and %d inserts resized them to %d", n, slots, n, len(c.tab.keys))
		}
		c.tab.Reserve(n / 2)
		if len(c.tab.keys) != slots {
			t.Errorf("Reserve(%d) on a table of %d slots resized it to %d", n/2, slots, len(c.tab.keys))
		}
		c.tab.Reserve(4 * n)
		c.all()
	}
}

// FuzzTable hunts for operation scripts on which the table and a
// builtin map disagree. `go test` runs the seed corpus;
// `go test -fuzz FuzzTable ./internal/table` explores.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	// Fill the wrapping cluster, delete from its middle, check.
	f.Add([]byte{0, 4, 0, 7, 0, 10, 0, 13, 0, 16, 2, 7, 1, 10, 3, 0, 2, 4, 3, 0})
	// The all-ones key and 0, in and out.
	f.Add([]byte{0, 1, 0, 0, 2, 1, 1, 1, 0, 1, 2, 0, 3, 0})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	pool := keyPool(rand.New(rand.NewSource(3)), 26)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		newChecker(t).run(script, pool)
	})
}
