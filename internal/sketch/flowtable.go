package sketch

import (
	"fastflex/internal/packet"
	"time"
)

// FlowState is the per-flow TCP state a connection-table PPM maintains, the
// substrate for Dapper/Blink-style low-rate persistent-flow detection
// (§4.1: "monitor per-flow TCP state in the data plane").
type FlowState struct {
	Key       packet.FlowKey
	FirstSeen time.Duration
	LastSeen  time.Duration
	Packets   uint64
	Bytes     uint64
	SYNs      uint32
	FINs      uint32
	RSTs      uint32
	// Suspicion accumulates detector scoring; mitigation PPMs act on it.
	Suspicion uint8
	// MarkedAt is when Suspicion first became nonzero; escalation clocks
	// run from here, not from flow start, so long-lived benign flows are
	// not penalized for their age.
	MarkedAt time.Duration
}

// Duration returns how long the flow has been observed.
func (s *FlowState) Duration() time.Duration { return s.LastSeen - s.FirstSeen }

// RateBps returns the flow's average rate in bits/sec over its lifetime,
// or 0 if it has been seen for less than a millisecond.
func (s *FlowState) RateBps() float64 {
	d := s.Duration()
	if d < time.Millisecond {
		return 0
	}
	return float64(s.Bytes*8) / d.Seconds()
}

// FlowTable is a fixed-capacity connection table with LRU eviction,
// modeling the bounded per-flow state an ASIC stage can hold.
//
// The index is an open-addressed hash table rather than a Go map: Observe
// runs once per packet inside detector PPMs, and linear probing over a
// half-loaded power-of-two slot array costs one predictable cache line in
// the common case where a runtime map pays hashing plus bucket-group
// probing. The slot array is sized for the full capacity at construction,
// so probe sequences never depend on how many flows a run has seen. Node
// storage, which holds the flows themselves, starts at initialFlowNodes and
// doubles up to the capacity as fresh flows arrive: the hardware table is
// provisioned in full (Bytes), the host memory behind it only as far as a
// run fills it. Reset keeps grown storage, so a warm table re-runs without
// regrowing. Growth moves the nodes, so a *FlowState returned by Observe or
// Lookup stays valid only until the next Observe that inserts a flow, or
// the next Delete or Reset.
type FlowTable struct {
	cap   int
	nodes []flowNode // backing store, grown by doubling up to cap
	free  []int32    // recycled node indices, LIFO
	used  int
	slots []int32 // open-addressed index: node index + 1, 0 = empty
	mask  uint64
	head  *flowNode // most recently used
	tail  *flowNode // least recently used
	evils uint64    // eviction counter, exported via Evictions
}

// initialFlowNodes is the node storage a table starts with (or its
// capacity, if smaller): the flows most LFA detectors track over a 30 s
// Figure-3 run, so a warm fabric re-runs with few regrowths. Starting
// smaller saves little more and moves the doubling into the first runs.
const initialFlowNodes = 512

type flowNode struct {
	state      FlowState
	idx        int32 // position in nodes, for the free list
	prev, next *flowNode
}

// NewFlowTable returns a table holding at most capacity flows.
func NewFlowTable(capacity int) *FlowTable { return newFlowTable(capacity, initialFlowNodes) }

// newFlowTable is NewFlowTable with node storage starting at initial nodes
// (at most capacity; initial must be positive).
func newFlowTable(capacity, initial int) *FlowTable {
	if capacity <= 0 {
		panic("sketch: flow table capacity must be positive")
	}
	// Slots stay at most half full so probe runs stay short.
	slots := 8
	for slots < 2*capacity {
		slots *= 2
	}
	return &FlowTable{
		cap:   capacity,
		nodes: make([]flowNode, min(capacity, initial)),
		slots: make([]int32, slots),
		mask:  uint64(slots - 1),
	}
}

// HashFlowKey is the index hash of the open-addressed flow structures here
// and in the boosters: packet.FlowKey.TableHash, which per-packet code reads
// precomputed from packet.Packet.Flow.
func HashFlowKey(k packet.FlowKey) uint64 { return k.TableHash() }

// findSlot returns the slot holding k (whose table hash is h), or the empty
// slot where k would be inserted.
func (t *FlowTable) findSlot(k packet.FlowKey, h uint64) uint64 {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 || t.nodes[s-1].state.Key == k {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// Observe updates (or inserts) the state for the packet's flow and returns
// it. now is the virtual time of the observation.
func (t *FlowTable) Observe(p *packet.Packet, now time.Duration) *FlowState {
	k, h := p.Flow()
	i := t.findSlot(k, h)
	var n *flowNode
	if s := t.slots[i]; s != 0 {
		n = &t.nodes[s-1]
		t.moveFront(n)
	} else {
		n = t.insert(k, h, i, now)
	}
	s := &n.state
	s.LastSeen = now
	s.Packets++
	s.Bytes += uint64(p.Len())
	if p.Proto == packet.ProtoTCP {
		if p.Flags&packet.FlagSYN != 0 {
			s.SYNs++
		}
		if p.Flags&packet.FlagFIN != 0 {
			s.FINs++
		}
		if p.Flags&packet.FlagRST != 0 {
			s.RSTs++
		}
	}
	return s
}

// insert starts tracking flow k (table hash h) first seen at now, in the
// empty slot i that findSlot returned for it, evicting the least recently
// used flow when the table is full. It is kept out of line so the per-packet
// hit path in Observe carries none of its calls.
//
//go:noinline
func (t *FlowTable) insert(k packet.FlowKey, h, i uint64, now time.Duration) *flowNode {
	if t.used >= t.cap {
		t.evict()
		// Eviction backshifts slots, so k's probe position may move.
		i = t.findSlot(k, h)
	}
	var idx int32
	if ln := len(t.free); ln > 0 {
		idx = t.free[ln-1]
		t.free = t.free[:ln-1]
	} else {
		idx = int32(t.used)
		if int(idx) == len(t.nodes) {
			t.grow()
		}
	}
	t.used++
	n := &t.nodes[idx]
	n.state = FlowState{Key: k, FirstSeen: now}
	n.idx = idx
	t.slots[i] = idx + 1
	t.pushFront(n)
	return n
}

// Lookup returns the state for a key without touching recency, or nil.
func (t *FlowTable) Lookup(k packet.FlowKey) *FlowState {
	if s := t.slots[t.findSlot(k, k.TableHash())]; s != 0 {
		return &t.nodes[s-1].state
	}
	return nil
}

// Len returns the number of tracked flows.
func (t *FlowTable) Len() int { return t.used }

// Evictions returns how many flows have been evicted for capacity.
func (t *FlowTable) Evictions() uint64 { return t.evils }

// Range calls fn for every tracked flow until fn returns false. Iteration
// order is most- to least-recently used (deterministic).
func (t *FlowTable) Range(fn func(*FlowState) bool) {
	for n := t.head; n != nil; n = n.next {
		if !fn(&n.state) {
			return
		}
	}
}

// Delete removes a flow from the table.
func (t *FlowTable) Delete(k packet.FlowKey) {
	i := t.findSlot(k, k.TableHash())
	if s := t.slots[i]; s != 0 {
		t.remove(&t.nodes[s-1], i)
	}
}

// remove drops a tracked node: list unlink, free-list return, and slot
// erase with linear-probing backshift so later probe chains stay intact.
func (t *FlowTable) remove(n *flowNode, i uint64) {
	t.unlink(n)
	t.free = append(t.free, n.idx)
	t.used--
	t.slots[i] = 0
	for j := (i + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		home := t.nodes[t.slots[j]-1].state.Key.TableHash() & t.mask
		// Shift the entry down iff its home slot does not sit strictly
		// inside the (i, j] gap we just opened (cyclic comparison).
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
}

// Reset clears all flows.
func (t *FlowTable) Reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.free = t.free[:0]
	t.used = 0
	t.head, t.tail = nil, nil
}

// Bytes returns the SRAM footprint (approximate per-entry cost × capacity),
// charged whether or not slots are occupied — hardware tables are
// statically provisioned.
func (t *FlowTable) Bytes() int { return t.cap * 64 }

// grow doubles node storage, up to the capacity. It runs only when every
// node is live (no free index, used == len(nodes)), so one pass re-points
// each copied link, and head and tail, into the new array.
func (t *FlowTable) grow() {
	nodes := make([]flowNode, min(2*len(t.nodes), t.cap))
	copy(nodes, t.nodes)
	for i := range t.nodes {
		n := &nodes[i]
		if n.prev != nil {
			n.prev = &nodes[n.prev.idx]
		}
		if n.next != nil {
			n.next = &nodes[n.next.idx]
		}
	}
	t.head, t.tail = &nodes[t.head.idx], &nodes[t.tail.idx]
	t.nodes = nodes
}

func (t *FlowTable) evict() {
	if t.tail == nil {
		return
	}
	k := t.tail.state.Key
	t.remove(t.tail, t.findSlot(k, k.TableHash()))
	t.evils++
}

func (t *FlowTable) pushFront(n *flowNode) {
	n.prev, n.next = nil, t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

func (t *FlowTable) moveFront(n *flowNode) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}

func (t *FlowTable) unlink(n *flowNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
