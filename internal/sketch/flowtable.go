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
// modeling the bounded per-flow state an ASIC stage can hold. It is a Table
// of flow states threaded on a recency list by entry index, so growing the
// storage is a plain copy. A *FlowState returned by Observe or Lookup stays
// valid only until the next Observe that inserts a flow, or the next Delete
// or Reset.
type FlowTable struct {
	tab        Table[flowNode]
	head, tail int32  // most and least recently used entry, -1 when empty
	evils      uint64 // eviction counter, exported via Evictions
}

type flowNode struct {
	state      FlowState
	prev, next int32 // recency-list neighbours' entry indices, -1 at the ends
}

// NewFlowTable returns a table holding at most capacity flows.
func NewFlowTable(capacity int) *FlowTable { return newFlowTable(capacity, InitialEntries) }

// newFlowTable is NewFlowTable with storage starting at initial flows (at
// most capacity; initial must be positive).
func newFlowTable(capacity, initial int) *FlowTable {
	return &FlowTable{tab: NewTable[flowNode](capacity, initial), head: -1, tail: -1}
}

// Observe updates (or inserts) the state for the packet's flow and returns
// it. now is the virtual time of the observation.
func (t *FlowTable) Observe(p *packet.Packet, now time.Duration) *FlowState {
	k, h := p.Flow()
	i, e := t.tab.find(k, h)
	idx := e - 1
	if e != 0 {
		t.moveFront(idx)
	} else {
		idx = t.insert(k, h, i, now)
	}
	s := &t.tab.entries[idx].val.state
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
// empty slot i that find returned for it, evicting the least recently used
// flow when the table is full. It is kept out of line so the per-packet hit
// path in Observe carries none of its calls.
//
//go:noinline
func (t *FlowTable) insert(k packet.FlowKey, h, i uint64, now time.Duration) int32 {
	if t.tab.Len() >= t.tab.Cap() {
		t.remove(t.tail)
		t.evils++
		// Deletion backshifts slots, so k's probe position may move.
		i, _ = t.tab.find(k, h)
	}
	idx := t.tab.Insert(i, k, flowNode{state: FlowState{Key: k, FirstSeen: now}})
	t.pushFront(idx)
	return idx
}

// Lookup returns the state for a key without touching recency, or nil.
func (t *FlowTable) Lookup(k packet.FlowKey) *FlowState {
	if _, s := t.tab.find(k, k.TableHash()); s != 0 {
		return &t.tab.entries[s-1].val.state
	}
	return nil
}

// Len returns the number of tracked flows.
func (t *FlowTable) Len() int { return t.tab.Len() }

// Evictions returns how many flows have been evicted for capacity.
func (t *FlowTable) Evictions() uint64 { return t.evils }

// Range calls fn for every tracked flow until fn returns false. Iteration
// order is most- to least-recently used (deterministic).
func (t *FlowTable) Range(fn func(*FlowState) bool) {
	for i := t.head; i >= 0; i = t.tab.entries[i].val.next {
		if !fn(&t.tab.entries[i].val.state) {
			return
		}
	}
}

// Delete removes a flow from the table.
func (t *FlowTable) Delete(k packet.FlowKey) {
	if _, s := t.tab.find(k, k.TableHash()); s != 0 {
		t.remove(s - 1)
	}
}

// remove drops the flow in entry idx from the recency list and the table.
func (t *FlowTable) remove(idx int32) {
	t.unlink(idx)
	k := t.tab.entries[idx].key
	i, _ := t.tab.find(k, k.TableHash())
	t.tab.Delete(i)
}

// Reset clears all flows.
func (t *FlowTable) Reset() {
	t.tab.Reset()
	t.head, t.tail = -1, -1
}

// Bytes returns the SRAM footprint (approximate per-entry cost × capacity),
// charged whether or not slots are occupied — hardware tables are
// statically provisioned.
func (t *FlowTable) Bytes() int { return t.tab.Cap() * 64 }

func (t *FlowTable) pushFront(idx int32) {
	e := t.tab.entries
	e[idx].val.prev, e[idx].val.next = -1, t.head
	if t.head >= 0 {
		e[t.head].val.prev = idx
	} else {
		t.tail = idx
	}
	t.head = idx
}

func (t *FlowTable) moveFront(idx int32) {
	if t.head == idx {
		return
	}
	t.unlink(idx)
	t.pushFront(idx)
}

func (t *FlowTable) unlink(idx int32) {
	e := t.tab.entries
	n := &e[idx].val
	if n.prev >= 0 {
		e[n.prev].val.next = n.next
	} else {
		t.head = n.next
	}
	if n.next >= 0 {
		e[n.next].val.prev = n.prev
	} else {
		t.tail = n.prev
	}
}
