package packet_test

import (
	"bytes"
	"reflect"
	"testing"

	"fastflex/internal/packet"
	"fastflex/internal/sketch"
)

// fresh is what Flow must always return: the pair derived from the packet's
// header as it stands now, by the functions every table used before the
// memo existed.
func fresh(p *packet.Packet) (packet.FlowKey, uint64) {
	return p.Key(), sketch.HashFlowKey(p.Key())
}

func checkFlow(t *testing.T, when string, p *packet.Packet) {
	t.Helper()
	wantK, wantH := fresh(p)
	for call := 1; call <= 2; call++ { // the deriving call, then the memoized one
		if k, h := p.Flow(); k != wantK || h != wantH {
			t.Fatalf("%s, call %d: Flow() = (%x, %#x), fresh = (%x, %#x)", when, call, k, h, wantK, wantH)
		}
	}
}

// FuzzFlowMemo is the soundness check of Packet.Flow: for arbitrary header
// fields the memoized pair is bit-identical to the one derived afresh — on a
// new packet, on a recycled one that carried another flow before (the stale
// memo guard), on pooled and heap clones, and on a packet decoded over one
// whose memo was set.
func FuzzFlowMemo(f *testing.F) {
	f.Add(uint32(0x0A000001), uint32(0x0A000002), uint8(6), uint16(1000), uint16(80),
		uint32(0x0A000003), uint32(0x0A000004), uint8(17), uint16(53), uint16(53))
	f.Add(uint32(0), uint32(0), uint8(0), uint16(0), uint16(0),
		uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint8(255), uint16(0xFFFF), uint16(0xFFFF))
	f.Add(uint32(0xC0A80001), uint32(0xC0A8FFFE), uint8(253), uint16(0), uint16(0),
		uint32(0xC0A80001), uint32(0xC0A8FFFE), uint8(253), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, src, dst uint32, proto uint8, sport, dport uint16,
		src2, dst2 uint32, proto2 uint8, sport2, dport2 uint16) {
		set := func(p *packet.Packet, src, dst uint32, proto uint8, sport, dport uint16) {
			p.Src, p.Dst, p.Proto = packet.Addr(src), packet.Addr(dst), packet.Proto(proto)
			p.SrcPort, p.DstPort, p.TTL = sport, dport, 64
		}
		var pool packet.Pool
		p := pool.Get()
		set(p, src, dst, proto, sport, dport)
		checkFlow(t, "new packet", p)

		c := pool.Clone(p)
		checkFlow(t, "pooled clone of a memoized packet", c)
		checkFlow(t, "heap clone of a memoized packet", p.Clone())
		pool.Put(c)

		// Recycle p and reuse the very same object for another flow.
		pool.Put(p)
		pool.Put(p.Clone()) // heap-born: must not enter the pool
		if pool.Free() != 2 {
			t.Fatalf("pool holds %d packets after two pool-born Puts and one heap-born", pool.Free())
		}
		q := pool.Get()
		if q != p {
			t.Fatal("LIFO pool did not hand the recycled packet back")
		}
		set(q, src2, dst2, proto2, sport2, dport2)
		checkFlow(t, "recycled packet carrying a new flow", q)

		// Decode over a packet whose memo is set for another flow.
		w := &packet.Packet{Src: packet.Addr(src), Dst: packet.Addr(dst), Proto: packet.ProtoUDP,
			SrcPort: sport, DstPort: dport}
		wire, err := w.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
		checkFlow(t, "packet decoded over a memoized one", q)
		pool.Put(q)
		if pool.Free() != 2 {
			t.Fatal("a pooled packet stopped being pooled when it was decoded into")
		}
	})
}

// FuzzPacketRoundTrip feeds arbitrary bytes to the decoder. Whatever it
// accepts must serialize (decode may not admit what encode refuses), decode
// again to the same packet and serialize to the same bytes.
func FuzzPacketRoundTrip(f *testing.F) {
	for _, p := range []*packet.Packet{
		{Src: packet.HostAddr(1), Dst: packet.HostAddr(2), TTL: 64, Proto: packet.ProtoTCP,
			SrcPort: 4444, DstPort: 80, Flags: packet.FlagSYN, Seq: 9, PayloadLen: 1200, Suspicion: 1, Hops: 3},
		{Src: packet.RouterAddr(3), Dst: packet.HostAddr(1), TTL: 60, Proto: packet.ProtoICMP,
			ICMP: &packet.ICMPInfo{Type: packet.ICMPTimeExceeded, From: packet.RouterAddr(3), OrigSeq: 7, OrigTTL: 1}},
		{Src: packet.RouterAddr(1), Dst: packet.RouterAddr(2), TTL: 32, Proto: packet.ProtoProbe,
			Probe: &packet.ProbeInfo{Kind: packet.ProbeState, Origin: packet.RouterAddr(1), Seq: 3,
				StateID: 2, ChunkIdx: 1, ChunkCnt: 4, FECParity: true, State: []byte{9, 8, 7}}},
		{Src: packet.RouterAddr(4), Dst: packet.RouterAddr(5), TTL: 16, Proto: packet.ProtoProbe,
			Probe: &packet.ProbeInfo{Kind: packet.ProbeUtil, Origin: packet.RouterAddr(4), Seq: 11,
				HopsLeft: 1, UtilMicro: 99, DstSwitch: 5}},
		{Src: packet.RouterAddr(6), Dst: packet.RouterAddr(0xFFFE), TTL: 64, Proto: packet.ProtoProbe,
			Probe: &packet.ProbeInfo{Kind: packet.ProbeModeChange, Origin: packet.RouterAddr(6), Seq: 1,
				HopsLeft: 32, Mode: 2, Region: 0xFFFF, Clear: true}},
	} {
		wire, err := p.Marshal(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	// A state chunk one byte over what Marshal accepts, framed correctly.
	over := make([]byte, 16+23+4097)
	over[9], over[14], over[15], over[16] = byte(packet.ProtoProbe), (23+4097)>>8, (23+4097)&0xFF, byte(packet.ProbeState)
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p packet.Packet
		n, err := p.Unmarshal(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("Unmarshal consumed %d of %d bytes", n, len(data))
		}
		wire, err := p.Marshal(nil)
		if err != nil {
			t.Fatalf("decoded packet does not serialize: %v", err)
		}
		var q packet.Packet
		if m, err := q.Unmarshal(wire); err != nil || m != len(wire) {
			t.Fatalf("re-decode: consumed %d of %d, error %v", m, len(wire), err)
		}
		if !reflect.DeepEqual(&p, &q) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", &q, &p)
		}
		if wire2, err := q.Marshal(nil); err != nil || !bytes.Equal(wire, wire2) {
			t.Fatalf("serialization is not a fixed point: %x then %x (%v)", wire, wire2, err)
		}
	})
}
