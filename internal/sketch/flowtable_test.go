package sketch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fastflex/internal/packet"
)

func tcpPkt(src, dst int, sport uint16, flags packet.TCPFlags, plen uint16) *packet.Packet {
	return &packet.Packet{
		Src: packet.HostAddr(src), Dst: packet.HostAddr(dst), TTL: 64,
		Proto: packet.ProtoTCP, SrcPort: sport, DstPort: 80, Flags: flags,
		PayloadLen: plen,
	}
}

func TestFlowTableObserve(t *testing.T) {
	ft := NewFlowTable(10)
	p := tcpPkt(1, 2, 1000, packet.FlagSYN, 100)
	s := ft.Observe(p, time.Second)
	if s.Packets != 1 || s.SYNs != 1 {
		t.Fatalf("state after first packet: %+v", s)
	}
	ft.Observe(tcpPkt(1, 2, 1000, packet.FlagACK, 200), 2*time.Second)
	s = ft.Lookup(p.Key())
	if s == nil {
		t.Fatal("flow missing after observe")
	}
	if s.Packets != 2 {
		t.Fatalf("packets = %d, want 2", s.Packets)
	}
	if s.FirstSeen != time.Second || s.LastSeen != 2*time.Second {
		t.Fatalf("timestamps wrong: %+v", s)
	}
	if s.Duration() != time.Second {
		t.Fatalf("duration = %v", s.Duration())
	}
}

func TestFlowTableCountsFlags(t *testing.T) {
	ft := NewFlowTable(10)
	ft.Observe(tcpPkt(1, 2, 1, packet.FlagSYN, 0), 0)
	ft.Observe(tcpPkt(1, 2, 1, packet.FlagFIN|packet.FlagACK, 0), time.Second)
	ft.Observe(tcpPkt(1, 2, 1, packet.FlagRST, 0), 2*time.Second)
	s := ft.Lookup(tcpPkt(1, 2, 1, 0, 0).Key())
	if s.SYNs != 1 || s.FINs != 1 || s.RSTs != 1 {
		t.Fatalf("flag counts: %+v", s)
	}
}

func TestFlowTableLRUEviction(t *testing.T) {
	ft := NewFlowTable(3)
	for i := 0; i < 3; i++ {
		ft.Observe(tcpPkt(i, 100, uint16(i), 0, 0), time.Duration(i)*time.Millisecond)
	}
	// Touch flow 0 so flow 1 becomes LRU.
	ft.Observe(tcpPkt(0, 100, 0, 0, 0), 10*time.Millisecond)
	// Insert a 4th flow; flow 1 must be evicted.
	ft.Observe(tcpPkt(9, 100, 9, 0, 0), 11*time.Millisecond)
	if ft.Len() != 3 {
		t.Fatalf("len = %d, want 3", ft.Len())
	}
	if ft.Lookup(tcpPkt(1, 100, 1, 0, 0).Key()) != nil {
		t.Fatal("LRU flow 1 was not evicted")
	}
	if ft.Lookup(tcpPkt(0, 100, 0, 0, 0).Key()) == nil {
		t.Fatal("recently used flow 0 was evicted")
	}
	if ft.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", ft.Evictions())
	}
}

func TestFlowTableRangeMRUOrder(t *testing.T) {
	ft := NewFlowTable(5)
	for i := 0; i < 3; i++ {
		ft.Observe(tcpPkt(i, 100, uint16(i), 0, 0), time.Duration(i)*time.Millisecond)
	}
	var order []uint16
	ft.Range(func(s *FlowState) bool {
		order = append(order, uint16(s.Key[9])<<8|uint16(s.Key[10]))
		return true
	})
	// MRU first: flow 2, 1, 0.
	if len(order) != 3 || order[0] != 2 || order[2] != 0 {
		t.Fatalf("range order = %v, want [2 1 0]", order)
	}
	// Early termination.
	n := 0
	ft.Range(func(*FlowState) bool { n++; return false })
	if n != 1 {
		t.Fatalf("range did not stop early: %d calls", n)
	}
}

func TestFlowTableDelete(t *testing.T) {
	ft := NewFlowTable(5)
	p := tcpPkt(1, 2, 3, 0, 0)
	ft.Observe(p, 0)
	ft.Delete(p.Key())
	if ft.Lookup(p.Key()) != nil || ft.Len() != 0 {
		t.Fatal("delete failed")
	}
	ft.Delete(p.Key()) // double delete is a no-op
}

func TestFlowTableRate(t *testing.T) {
	ft := NewFlowTable(5)
	p := tcpPkt(1, 2, 3, 0, 1000)
	var s *FlowState
	for i := 0; i <= 10; i++ {
		s = ft.Observe(p, time.Duration(i)*100*time.Millisecond)
	}
	// 11 packets × (1000 payload + 25 header) bytes over 1 s ≈ 90.2 kbps.
	rate := s.RateBps()
	if rate < 80e3 || rate > 100e3 {
		t.Fatalf("rate = %v bps, want ≈ 90kbps", rate)
	}
	fresh := ft.Observe(tcpPkt(5, 6, 7, 0, 0), 0)
	if fresh.RateBps() != 0 {
		t.Fatal("sub-millisecond flow should report zero rate")
	}
}

func TestFlowTableResetAndReuse(t *testing.T) {
	ft := NewFlowTable(2)
	ft.Observe(tcpPkt(1, 2, 3, 0, 0), 0)
	ft.Reset()
	if ft.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	ft.Observe(tcpPkt(4, 5, 6, 0, 0), 0)
	if ft.Len() != 1 {
		t.Fatal("table unusable after reset")
	}
}

// Property: table never exceeds capacity and tracked packet counts are
// consistent for any observation sequence.
func TestQuickFlowTableCapacity(t *testing.T) {
	f := func(srcs []uint8) bool {
		ft := NewFlowTable(8)
		for i, s := range srcs {
			ft.Observe(tcpPkt(int(s), 1, uint16(s), 0, 0), time.Duration(i)*time.Millisecond)
			if ft.Len() > 8 {
				return false
			}
		}
		total := uint64(0)
		ft.Range(func(s *FlowState) bool { total += s.Packets; return true })
		return total <= uint64(len(srcs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowTablePanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewFlowTable(0)
}

// TestFlowTableObserveMatchesRehash drives one packet stream through two
// tables: one sees every packet afresh (a literal per observation, so the
// key and hash are derived each time, as before Packet.Flow existed), the
// other sees pooled packets whose memo is already set when Observe runs —
// each observed at several "hops", recycled, and reused for other flows. The
// tables must end up identical: same flows in the same recency order with
// the same counters, and the same evictions. The table is small enough that
// the stream keeps evicting.
func TestFlowTableObserveMatchesRehash(t *testing.T) {
	rehash, memo := NewFlowTable(32), NewFlowTable(32)
	var pool packet.Pool
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		src, sport := rng.Intn(12), uint16(rng.Intn(8))
		flags := packet.TCPFlags(rng.Intn(16))
		now := time.Duration(i) * time.Millisecond

		p := pool.Get()
		p.Src, p.Dst, p.TTL = packet.HostAddr(src), packet.HostAddr(100), 64
		p.Proto, p.SrcPort, p.DstPort = packet.ProtoTCP, sport, 80
		p.Flags, p.PayloadLen = flags, 100
		hops := 1 + rng.Intn(3)
		for h := 0; h < hops; h++ {
			rehash.Observe(tcpPkt(src, 100, sport, flags, 100), now)
			if h == 1 {
				q := pool.Clone(p) // a copy carries the memo with it
				memo.Observe(q, now)
				pool.Put(q)
				continue
			}
			memo.Observe(p, now)
		}
		pool.Put(p)
	}
	if rehash.Evictions() == 0 {
		t.Fatal("vacuous: the stream never evicted")
	}
	if rehash.Evictions() != memo.Evictions() || rehash.Len() != memo.Len() {
		t.Fatalf("evictions %d vs %d, flows %d vs %d", rehash.Evictions(), memo.Evictions(), rehash.Len(), memo.Len())
	}
	var want, got []FlowState
	rehash.Range(func(s *FlowState) bool { want = append(want, *s); return true })
	memo.Range(func(s *FlowState) bool { got = append(got, *s); return true })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("tables diverged:\n rehash %+v\n memo   %+v", want, got)
	}
	if pool.News > 2 {
		t.Fatalf("pool allocated %d packets; the memo path was not exercising reuse", pool.News)
	}
}

// flowPkt is a packet of the k-th of up to 64k distinct flows.
func flowPkt(k int) *packet.Packet { return tcpPkt(k%1000, 100, uint16(k/1000), packet.FlagACK, 100) }

// TestFlowTableStorageFollowsFlows pins the host-memory side of the table:
// node storage grows with the distinct flows seen, at most doubling past
// them, and never past the capacity; the modeled SRAM stays the full
// table whatever a run touched.
func TestFlowTableStorageFollowsFlows(t *testing.T) {
	const capacity = 4096
	ft := NewFlowTable(capacity)
	for k := 1; k <= capacity+500; k++ {
		ft.Observe(flowPkt(k), time.Duration(k)*time.Millisecond)
		if n := cap(ft.tab.entries); n > max(InitialEntries, 2*k) || n > capacity {
			t.Fatalf("after %d flows: %d nodes, want <= min(max(%d, %d), %d)",
				k, n, InitialEntries, 2*k, capacity)
		}
	}
	if ft.Len() != capacity || ft.Evictions() != 500 {
		t.Fatalf("Len %d Evictions %d, want %d and 500", ft.Len(), ft.Evictions(), capacity)
	}
	if ft.Bytes() != capacity*64 {
		t.Fatalf("Bytes() = %d, want the full provisioned table %d", ft.Bytes(), capacity*64)
	}
}

// TestFlowTableResetKeepsStorage: a warm table that is Reset and sees the
// same flows again allocates nothing, because Reset keeps grown storage.
func TestFlowTableResetKeepsStorage(t *testing.T) {
	const flows = 3 * InitialEntries
	pkts := make([]*packet.Packet, flows)
	for k := range pkts {
		pkts[k] = flowPkt(k)
		pkts[k].Flow() // memoize, as a forwarded packet has
	}
	ft := NewFlowTable(4096)
	for _, p := range pkts {
		ft.Observe(p, 0)
	}
	grown := cap(ft.tab.entries)
	allocs := testing.AllocsPerRun(20, func() {
		ft.Reset()
		for i, p := range pkts {
			ft.Observe(p, time.Duration(i))
		}
	})
	if allocs != 0 || cap(ft.tab.entries) != grown || ft.Len() != flows {
		t.Fatalf("re-run after Reset: %v allocs, %d nodes (grown %d), %d flows; want 0 allocs and storage kept",
			allocs, cap(ft.tab.entries), grown, ft.Len())
	}
}

// BenchmarkFlowTableObserveHit is the per-packet cost of a detector's
// table on established flows: 300 live flows in a 4096-flow table, every
// observation a hit (probe, LRU move to front, counter update).
func BenchmarkFlowTableObserveHit(b *testing.B) {
	const flows = 300
	ft := NewFlowTable(4096)
	pkts := make([]*packet.Packet, flows)
	for k := range pkts {
		pkts[k] = tcpPkt(k, 100, uint16(k), packet.FlagACK, 100)
		ft.Observe(pkts[k], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Observe(pkts[i%flows], time.Duration(i))
	}
}
