// Package table holds the hash table the per-frame protocol state keeps
// its node- and packet-keyed entries in: neighbour, route and
// duplicate-filter tables that every received frame reads or refreshes.
// It replaces Go's builtin map there because those lookups were a fifth
// of the simulator's host time (DESIGN.md §5).
package table

import (
	"iter"
	"math/bits"
)

// minSlots is the slot count a table takes on its first insert.
const minSlots = 8

// fib is 2⁶⁴/φ rounded to odd: multiplying by it and keeping the top
// bits (Fibonacci hashing) spreads sequential keys — consecutive node
// IDs, consecutive sequence numbers — across the whole table.
const fib = 0x9E3779B97F4A7C15

// Table maps uint64 keys to values of type V with open addressing.
// Every key is legal: occupancy lives in a bitmap, not in a reserved
// key value, so a hostile key off the wire (an all-ones sequence key)
// is stored like any other. The zero Table is empty and holds no
// storage; the first insert allocates it.
//
// A key's home slot is its Fibonacci hash; collisions probe linearly
// from there. The slot count is a power of two and doubles when an
// insert would take the load past ¾. Delete shifts the rest of the
// probe run back instead of leaving a tombstone, so a table that churns
// at a steady size never rehashes and lookups never walk dead slots.
//
// Keys, values and the occupancy bitmap live in three slices, so a slot
// costs 8 bytes of key, the size of V and one bit, with no padding.
// Get, Ref, Put of a present key and Delete allocate nothing. All
// visits entries in slot order, which depends only on the sequence of
// operations, never on a random seed.
//
// A pointer returned by Ref or Insert, or yielded by All, is valid
// until the next Insert, Put or Delete; a loop over All must not call
// them. A Table is not safe for concurrent use.
type Table[V any] struct {
	keys  []uint64
	vals  []V
	used  []uint64 // bit i&63 of word i>>6 marks slot i occupied
	n     int
	shift uint8 // 64 − log₂(len(keys)): home(k) = k·fib >> shift
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) home(k uint64) int { return int(k * fib >> t.shift) }

func (t *Table[V]) occupied(i int) bool { return t.used[i>>6]&(1<<(i&63)) != 0 }

// find returns k's slot and true, or the empty slot that ends k's probe
// run and false. The table must have storage.
func (t *Table[V]) find(k uint64) (int, bool) {
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		if !t.occupied(i) {
			return i, false
		}
		if t.keys[i] == k {
			return i, true
		}
	}
}

// Ref returns a pointer to k's value, or nil when k is absent.
func (t *Table[V]) Ref(k uint64) *V {
	if t.n == 0 {
		return nil
	}
	if i, ok := t.find(k); ok {
		return &t.vals[i]
	}
	return nil
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if p := t.Ref(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Insert returns a pointer to k's value, adding k with the zero value
// first when it is absent; added reports whether it did.
func (t *Table[V]) Insert(k uint64) (v *V, added bool) {
	if len(t.keys) == 0 {
		t.resize(minSlots)
	}
	i, ok := t.find(k)
	if ok {
		return &t.vals[i], false
	}
	if (t.n+1)*4 > len(t.keys)*3 {
		t.resize(2 * len(t.keys))
		i, _ = t.find(k)
	}
	t.keys[i] = k
	t.used[i>>6] |= 1 << (i & 63)
	t.n++
	return &t.vals[i], true
}

// Reserve makes room for n entries: until the table holds n, Insert
// and Put add keys without a resize. It never shrinks the table.
func (t *Table[V]) Reserve(n int) {
	if n*4 <= len(t.keys)*3 {
		return
	}
	slots := minSlots
	for n*4 > slots*3 {
		slots *= 2
	}
	t.resize(slots)
}

// Put sets k's value, adding k when it is absent.
func (t *Table[V]) Put(k uint64, v V) {
	p, _ := t.Insert(k)
	*p = v
}

// Delete removes k and reports whether it was present.
func (t *Table[V]) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	i, ok := t.find(k)
	if !ok {
		return false
	}
	// Backward shift: walk the probe run after the hole, and move into
	// it every entry whose home does not lie cyclically in (hole, j] —
	// an entry that probed past the hole. The moved entry's slot becomes
	// the new hole; the first empty slot ends the run.
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.occupied(j); j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	var zero V
	t.vals[i] = zero // drop what the value references
	t.used[i>>6] &^= 1 << (i & 63)
	t.n--
	return true
}

// All visits every entry in slot order, yielding its key and a pointer
// to its value.
func (t *Table[V]) All() iter.Seq2[uint64, *V] {
	return func(yield func(uint64, *V) bool) {
		for w, word := range t.used {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if !yield(t.keys[i], &t.vals[i]) {
					return
				}
			}
		}
	}
}

// resize moves every entry into fresh storage of the given power-of-two
// slot count.
func (t *Table[V]) resize(slots int) {
	keys, vals, used := t.keys, t.vals, t.used
	t.keys = make([]uint64, slots)
	t.vals = make([]V, slots)
	t.used = make([]uint64, (slots+63)>>6)
	t.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
	for w, word := range used {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			j, _ := t.find(keys[i])
			t.keys[j], t.vals[j] = keys[i], vals[i]
			t.used[j>>6] |= 1 << (j & 63)
		}
	}
}
