package sketch

import (
	"slices"
	"testing"
	"time"

	"fastflex/internal/packet"
)

// refFlowTable is the naive model FlowTable must agree with: a map of
// states plus the keys in most-recently-used order.
type refFlowTable struct {
	cap       int
	states    map[packet.FlowKey]*FlowState
	mru       []packet.FlowKey // most recently used first
	evictions uint64
}

func (r *refFlowTable) observe(p *packet.Packet, now time.Duration) *FlowState {
	k := p.Key()
	s := r.states[k]
	if s != nil {
		r.mru = slices.Insert(slices.DeleteFunc(r.mru, func(x packet.FlowKey) bool { return x == k }), 0, k)
	} else {
		if len(r.mru) >= r.cap {
			delete(r.states, r.mru[len(r.mru)-1])
			r.mru = r.mru[:len(r.mru)-1]
			r.evictions++
		}
		s = &FlowState{Key: k, FirstSeen: now}
		r.states[k] = s
		r.mru = slices.Insert(r.mru, 0, k)
	}
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

func (r *refFlowTable) delete(k packet.FlowKey) {
	if r.states[k] != nil {
		delete(r.states, k)
		r.mru = slices.DeleteFunc(r.mru, func(x packet.FlowKey) bool { return x == k })
	}
}

// fuzzPacket is the packet of flow k (0..95, so the key space exceeds the
// largest capacity): 16 sources × 6 source ports, TCP below 64 and UDP
// above, so some flows skip flag counting.
func fuzzPacket(k, flags, plen byte) *packet.Packet {
	p := &packet.Packet{
		Src: packet.HostAddr(int(k % 16)), Dst: packet.HostAddr(100), TTL: 64,
		Proto: packet.ProtoTCP, SrcPort: uint16(k / 16), DstPort: 80,
		Flags: packet.TCPFlags(flags), PayloadLen: uint16(plen) * 4,
	}
	if k >= 64 {
		p.Proto = packet.ProtoUDP
	}
	return p
}

// FuzzFlowTable drives FlowTable and the naive reference through one
// operation stream and requires them to agree after every step: Len,
// Evictions, every state Observe and Lookup return, and the full Range
// order. The first two bytes pick the capacity (1..64) and the initial node
// storage (1..capacity), so node storage doubles, fills, evicts and is
// reused after Reset within a short stream. Each further 4-byte record is
// one operation; Observe also writes a suspicion level through the returned
// pointer, as the LFA detector does, which must land in the table.
func FuzzFlowTable(f *testing.F) {
	// 64 distinct flows into a 64-flow table that starts with one node
	// crosses every doubling (1→2→…→64), then 32 fresh flows evict, a
	// Range checks the order, a Reset empties it, and the first flows
	// return into the grown storage.
	seed := []byte{63, 0}
	for k := byte(0); k < 96; k++ {
		seed = append(seed, 0, k, 1, 0x12)
	}
	seed = append(seed, 7, 0, 0, 0, 5, 40, 0, 0, 4, 41, 0, 0, 6, 0, 0, 0)
	for k := byte(0); k < 8; k++ {
		seed = append(seed, 1, k, 3, 0x25)
	}
	seed = append(seed, 7, 0, 0, 0)
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 5, 1, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0])%64
		ft := newFlowTable(capacity, 1+int(data[1])%capacity)
		ref := &refFlowTable{cap: capacity, states: map[packet.FlowKey]*FlowState{}}
		var now time.Duration
		for i, op := 0, data[2:]; len(op) >= 4; i, op = i+1, op[4:] {
			k, a, b := op[1]%96, op[2], op[3]
			key := fuzzPacket(k, 0, 0).Key()
			switch op[0] % 8 {
			case 0, 1, 2, 3: // Observe, weighted so tables fill
				now += time.Duration(a) * time.Millisecond
				p := fuzzPacket(k, b&0x7, a)
				got, want := ft.Observe(p, now), ref.observe(p, now)
				got.Suspicion, want.Suspicion = b>>4, b>>4
				if *got != *want {
					t.Fatalf("op %d: Observe(%d) = %+v, want %+v", i, k, *got, *want)
				}
			case 4:
				ft.Delete(key)
				ref.delete(key)
			case 5:
				got, want := ft.Lookup(key), ref.states[key]
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("op %d: Lookup(%d) = %v, want %v", i, k, got, want)
				}
			case 6:
				ft.Reset()
				ref.states, ref.mru = map[packet.FlowKey]*FlowState{}, nil
			case 7:
				var got []FlowState
				ft.Range(func(s *FlowState) bool { got = append(got, *s); return true })
				if len(got) != len(ref.mru) {
					t.Fatalf("op %d: Range visited %d flows, want %d", i, len(got), len(ref.mru))
				}
				for j, k := range ref.mru {
					if got[j] != *ref.states[k] {
						t.Fatalf("op %d: Range[%d] = %+v, want %+v", i, j, got[j], *ref.states[k])
					}
				}
			}
			if ft.Len() != len(ref.mru) || ft.Evictions() != ref.evictions {
				t.Fatalf("op %d: Len %d Evictions %d, want %d and %d",
					i, ft.Len(), ft.Evictions(), len(ref.mru), ref.evictions)
			}
		}
	})
}
