package packet

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddrPrefixes(t *testing.T) {
	h := HostAddr(5)
	r := RouterAddr(5)
	if h == r {
		t.Fatal("host and router addresses collide")
	}
	if h.Node() != 5 || r.Node() != 5 {
		t.Fatalf("node recovery: host=%d router=%d, want 5", h.Node(), r.Node())
	}
	if h.IsRouter() {
		t.Fatal("host address reports IsRouter")
	}
	if !r.IsRouter() {
		t.Fatal("router address does not report IsRouter")
	}
	if Addr(0).Node() != -1 {
		t.Fatal("zero address should not map to a node")
	}
}

func TestAddrString(t *testing.T) {
	if got := HostAddr(0).String(); got != "10.0.0.1" {
		t.Fatalf("HostAddr(0) = %s, want 10.0.0.1", got)
	}
	if got := RouterAddr(1).String(); got != "192.168.0.2" {
		t.Fatalf("RouterAddr(1) = %s, want 192.168.0.2", got)
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if len(wire)+int(p.PayloadLen) != p.Len() {
		t.Fatalf("wire %d + payload %d != Len %d", len(wire), p.PayloadLen, p.Len())
	}
	var q Packet
	n, err := q.Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	return &q
}

func TestRoundTripTCP(t *testing.T) {
	p := &Packet{
		Src: HostAddr(1), Dst: HostAddr(2), TTL: 64, Proto: ProtoTCP,
		SrcPort: 4444, DstPort: 80, Flags: FlagSYN | FlagACK, Seq: 123456,
		PayloadLen: 1400, Suspicion: 2,
	}
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestRoundTripICMP(t *testing.T) {
	p := &Packet{
		Src: RouterAddr(3), Dst: HostAddr(1), TTL: 64, Proto: ProtoICMP,
		ICMP: &ICMPInfo{Type: ICMPTimeExceeded, From: RouterAddr(3), OrigSeq: 99, OrigTTL: 2},
	}
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestRoundTripProbeKinds(t *testing.T) {
	probes := []*ProbeInfo{
		{Kind: ProbeModeChange, Origin: RouterAddr(1), Seq: 7, HopsLeft: 5, Mode: 3, Region: 2},
		{Kind: ProbeModeChange, Origin: RouterAddr(1), Seq: 8, HopsLeft: 5, Mode: 3, Region: 2, Clear: true},
		{Kind: ProbeUtil, Origin: RouterAddr(4), Seq: 100, HopsLeft: 1, UtilMicro: 734000, DstSwitch: 6},
		{Kind: ProbeState, Origin: RouterAddr(2), Seq: 5, HopsLeft: 8, StateID: 0xFF, ChunkIdx: 0xFF, ChunkCnt: 0xFF,
			State: []byte{42}},
		{Kind: ProbeState, Origin: RouterAddr(9), Seq: 1, StateID: 3, ChunkIdx: 2, ChunkCnt: 5,
			FECParity: true, State: []byte{1, 2, 3, 4, 5}},
	}
	for _, pi := range probes {
		p := &Packet{Src: RouterAddr(1), Dst: RouterAddr(2), TTL: 32, Proto: ProtoProbe, Probe: pi}
		q := roundTrip(t, p)
		if !reflect.DeepEqual(p, q) {
			t.Errorf("probe %v round trip mismatch:\n got %+v\nwant %+v", pi.Kind, q.Probe, p.Probe)
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	cases := []*Packet{
		{Proto: ProtoICMP},  // missing ICMP layer
		{Proto: ProtoProbe}, // missing probe layer
		{Proto: Proto(99)},  // unknown protocol
		{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeState, State: make([]byte, maxStateLen+1)}},
		{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeState, StateID: 300}},
		{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeState, ChunkCnt: 1 << 8}},
	}
	for i, p := range cases {
		if _, err := p.Marshal(nil); err == nil {
			t.Errorf("case %d: expected marshal error", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var p Packet
	if _, err := p.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	good, _ := (&Packet{Src: 1, Dst: 2, Proto: ProtoTCP}).Marshal(nil)
	if _, err := p.Unmarshal(good[:len(good)-2]); err == nil {
		t.Error("truncated L4 accepted")
	}
	bad := append([]byte(nil), good...)
	bad[9] = 99 // unknown protocol
	if _, err := p.Unmarshal(bad); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestFlowKey(t *testing.T) {
	p := &Packet{Src: HostAddr(1), Dst: HostAddr(2), Proto: ProtoTCP, SrcPort: 1000, DstPort: 80}
	k := p.Key()
	if k.Src() != p.Src || k.Dst() != p.Dst {
		t.Fatal("key does not encode addresses")
	}
	r := k.Reverse()
	if r.Src() != p.Dst || r.Dst() != p.Src {
		t.Fatal("reverse key wrong")
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
	p2 := &Packet{Src: HostAddr(1), Dst: HostAddr(2), Proto: ProtoTCP, SrcPort: 1000, DstPort: 81}
	if p2.Key() == k {
		t.Fatal("different ports produced equal keys")
	}
}

func TestFlowKeyHashSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		p := &Packet{Src: HostAddr(i % 10), Dst: HostAddr(5), Proto: ProtoTCP,
			SrcPort: uint16(1000 + i), DstPort: 80}
		seen[p.Key().Hash()] = true
	}
	if len(seen) < 990 {
		t.Fatalf("hash collisions too common: %d distinct of 1000", len(seen))
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packet{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeState, State: []byte{1, 2}}}
	q := p.Clone()
	q.Probe.State[0] = 9
	q.Probe.Seq = 42
	if p.Probe.State[0] == 9 || p.Probe.Seq == 42 {
		t.Fatal("clone aliases probe layer")
	}
	p2 := &Packet{Proto: ProtoICMP, ICMP: &ICMPInfo{Type: ICMPEchoReply}}
	q2 := p2.Clone()
	q2.ICMP.Type = ICMPTimeExceeded
	if p2.ICMP.Type == ICMPTimeExceeded {
		t.Fatal("clone aliases ICMP layer")
	}
}

func TestDedupKey(t *testing.T) {
	a := &ProbeInfo{Kind: ProbeModeChange, Origin: RouterAddr(1), Seq: 5}
	b := &ProbeInfo{Kind: ProbeModeChange, Origin: RouterAddr(1), Seq: 5, HopsLeft: 3}
	if a.Dedup() != b.Dedup() {
		t.Fatal("dedup key should ignore HopsLeft")
	}
	c := &ProbeInfo{Kind: ProbeUtil, Origin: RouterAddr(1), Seq: 5}
	if a.Dedup() == c.Dedup() {
		t.Fatal("dedup key should distinguish kinds")
	}
}

// Property: TCP/UDP packets survive a marshal/unmarshal round trip for
// arbitrary field values.
func TestQuickRoundTripTransport(t *testing.T) {
	f := func(src, dst uint32, ttl uint8, udp bool, sport, dport uint16, flags uint8, seq uint32, plen uint16, susp uint8) bool {
		proto := ProtoTCP
		if udp {
			proto = ProtoUDP
		}
		p := &Packet{Src: Addr(src), Dst: Addr(dst), TTL: ttl, Proto: proto,
			SrcPort: sport, DstPort: dport, Flags: TCPFlags(flags & 0x0F), Seq: seq,
			PayloadLen: plen, Suspicion: susp}
		wire, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		var q Packet
		if _, err := q.Unmarshal(wire); err != nil {
			return false
		}
		return reflect.DeepEqual(p, &q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: flow key reversal is an involution and preserves the proto byte.
func TestQuickFlowKeyReverse(t *testing.T) {
	f := func(src, dst uint32, proto uint8, sport, dport uint16) bool {
		p := &Packet{Src: Addr(src), Dst: Addr(dst), Proto: Proto(proto), SrcPort: sport, DstPort: dport}
		k := p.Key()
		return k.Reverse().Reverse() == k && k.Reverse()[8] == k[8]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLenAccounting(t *testing.T) {
	tcp := &Packet{Proto: ProtoTCP, PayloadLen: 1000}
	if tcp.Len() != baseHeaderLen+transportLen+1000 {
		t.Fatalf("TCP len = %d", tcp.Len())
	}
	pr := &Packet{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeState, State: make([]byte, 64)}}
	if pr.Len() != baseHeaderLen+probeFixedLen+64 {
		t.Fatalf("probe len = %d", pr.Len())
	}
}
