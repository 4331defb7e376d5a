package sketch

import "fastflex/internal/packet"

// Table is the flow-keyed register array per-flow data-plane state is built
// on: FlowTable here, and the reroute booster's flowlets and heavy-hitter
// bans. It holds at most a fixed capacity of entries, each keeping its
// five-tuple beside its value, so a hit touches one entry.
//
// The index is an open-addressed slot array rather than a Go map: linear
// probing over a half-loaded power-of-two array costs one predictable cache
// line per lookup where a runtime map pays hashing plus bucket probing. It
// is sized for the full capacity at construction, so probe sequences never
// depend on how many flows a run has seen. Entry storage starts at the
// initial size given to NewTable and doubles up to the capacity as fresh
// flows arrive: the hardware table is provisioned in full, host memory only
// as far as a run fills it. Reset keeps grown storage. Growth moves the
// entries, so a *V from Find stays valid only until the next Insert, Delete
// or Reset.
type Table[V any] struct {
	entries []entry[V] // len: indices handed out; cap: storage, ≤ limit
	free    []int32    // recycled entry indices, LIFO
	slots   []int32    // entry index + 1; 0 = empty
	mask    uint64
	limit   int
}

type entry[V any] struct {
	key packet.FlowKey
	val V
}

// InitialEntries is the usual starting storage (capped at the capacity):
// the flows most detector and flowlet tables hold over a 30 s Figure-3 run,
// so a warm fabric re-runs with few regrowths.
const InitialEntries = 512

// NewTable returns a table of at most capacity entries whose storage
// starts at initial entries (at most capacity; initial must be positive).
func NewTable[V any](capacity, initial int) Table[V] {
	if capacity <= 0 {
		panic("sketch: table capacity must be positive")
	}
	// Slots stay at most half full so probe runs stay short.
	slots := 8
	for slots < 2*capacity {
		slots *= 2
	}
	return Table[V]{
		entries: make([]entry[V], 0, min(capacity, initial)),
		slots:   make([]int32, slots),
		mask:    uint64(slots - 1),
		limit:   capacity,
	}
}

// HashFlowKey is the index hash of the tables here: packet.FlowKey.TableHash,
// which per-packet code reads precomputed from packet.Packet.Flow.
func HashFlowKey(k packet.FlowKey) uint64 { return k.TableHash() }

// find returns the slot holding k (whose table hash is h) and its entry
// index + 1, or the empty slot where k belongs and 0.
func (t *Table[V]) find(k packet.FlowKey, h uint64) (uint64, int32) {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 || t.entries[s-1].key == k {
			return i, s
		}
		i = (i + 1) & t.mask
	}
}

// Find returns the slot holding k (whose table hash is h) and its value, or
// the empty slot where k belongs and nil.
func (t *Table[V]) Find(k packet.FlowKey, h uint64) (uint64, *V) {
	i, s := t.find(k, h)
	if s == 0 {
		return i, nil
	}
	return i, &t.entries[s-1].val
}

// Insert stores k with value v in the empty slot Find returned for it, and
// returns the entry's index. The table must not be full (Len < Cap) and must
// not have changed since that Find. It is kept out of line so the hit paths
// of its users carry none of its calls.
//
//go:noinline
func (t *Table[V]) Insert(slot uint64, k packet.FlowKey, v V) int32 {
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.entries) == cap(t.entries) {
			// Doubling up to the limit: with no free index, Len < Cap
			// keeps len(entries) below it.
			grown := make([]entry[V], len(t.entries), min(2*cap(t.entries), t.limit))
			copy(grown, t.entries)
			t.entries = grown
		}
		idx = int32(len(t.entries))
		t.entries = t.entries[:idx+1]
	}
	t.entries[idx] = entry[V]{key: k, val: v}
	t.slots[slot] = idx + 1
	return idx
}

// Delete removes the entry in an occupied slot from Find and recycles its
// index. Later entries of the probe run shift back into the gap, so their
// chains stay intact without tombstones.
func (t *Table[V]) Delete(i uint64) {
	t.free = append(t.free, t.slots[i]-1)
	t.slots[i] = 0
	for j := (i + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		home := t.entries[t.slots[j]-1].key.TableHash() & t.mask
		// Shift the entry down iff its home slot does not sit strictly
		// inside the (i, j] gap just opened (cyclic comparison).
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
}

// Sweep calls keep on every entry once and deletes those it returns false
// for. The walk starts at an empty slot, so no probe run wraps past its
// end, and a deletion only shifts entries the walk has not reached into
// the slot it looks at next.
func (t *Table[V]) Sweep(keep func(*V) bool) {
	start := uint64(0)
	for t.slots[start] != 0 { // at most half the slots are full
		start++
	}
	for i, n := start, uint64(0); n <= t.mask; {
		if s := t.slots[i]; s != 0 && !keep(&t.entries[s-1].val) {
			t.Delete(i)
			continue
		}
		i, n = (i+1)&t.mask, n+1
	}
}

// Len returns the number of entries held.
func (t *Table[V]) Len() int { return len(t.entries) - len(t.free) }

// Cap returns the most entries the table holds.
func (t *Table[V]) Cap() int { return t.limit }

// Reset empties the table, keeping its storage.
func (t *Table[V]) Reset() {
	clear(t.slots)
	t.entries = t.entries[:0]
	t.free = t.free[:0]
}
