package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is a 32-bit network address. Host and router addresses live in
// distinct prefixes so topology obfuscation can rewrite router addresses
// without colliding with endpoints.
type Addr uint32

const (
	hostPrefix   = 0x0A000000 // 10.0.0.0/8
	routerPrefix = 0xC0A80000 // 192.168.0.0/16
)

// HostAddr returns the address of the host with the given dense node index.
func HostAddr(node int) Addr { return Addr(hostPrefix | (node + 1)) }

// RouterAddr returns the control address of the switch with the given dense
// node index. Traceroute responses carry these (or obfuscated ones).
func RouterAddr(node int) Addr { return Addr(routerPrefix | (node + 1)) }

// Node recovers the dense node index from a host or router address, or -1
// if the address is not in either prefix.
func (a Addr) Node() int {
	switch {
	case uint32(a)&0xFF000000 == hostPrefix:
		return int(uint32(a)&0x00FFFFFF) - 1
	case uint32(a)&0xFFFF0000 == routerPrefix:
		return int(uint32(a)&0x0000FFFF) - 1
	}
	return -1
}

// IsRouter reports whether the address is in the router prefix.
func (a Addr) IsRouter() bool { return uint32(a)&0xFFFF0000 == routerPrefix }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Proto identifies the layer carried above the network header.
type Proto uint8

// Protocol numbers. ProtoProbe is the FastFlex-specific protocol all
// booster coordination rides on.
const (
	ProtoTCP   Proto = 6
	ProtoUDP   Proto = 17
	ProtoICMP  Proto = 1
	ProtoProbe Proto = 253
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	case ProtoProbe:
		return "probe"
	}
	return fmt.Sprintf("proto%d", uint8(p))
}

// TCPFlags is the TCP control-bit field.
type TCPFlags uint8

// TCP control bits used by the per-flow state tracking boosters.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// ICMPType distinguishes the ICMP messages the simulator generates.
type ICMPType uint8

// ICMP message types. TimeExceeded is what traceroute elicits; topology
// obfuscation rewrites its From address.
const (
	ICMPEchoRequest ICMPType = iota + 1
	ICMPEchoReply
	ICMPTimeExceeded
)

// ICMPInfo is the ICMP layer.
type ICMPInfo struct {
	Type ICMPType
	// From is the address of the router reporting TimeExceeded. Topology
	// obfuscation rewrites this field.
	From Addr
	// OrigSeq echoes the Seq of the probe that triggered the message so
	// tracerouting hosts can match responses to probes.
	OrigSeq uint32
	// OrigTTL echoes the TTL the triggering probe was sent with.
	OrigTTL uint8
}

// Packet is one simulated packet. The struct is the in-memory decoded form;
// Marshal/Unmarshal define the wire format. PayloadLen counts application
// bytes that are accounted for in transmission time but not materialized.
//
// The five-tuple (Src, Dst, Proto, SrcPort, DstPort) is written once, by
// whoever builds the packet, and is frozen from the first Flow call on: no
// PPM rewrites it, which is what lets Flow memoize (see Flow).
type Packet struct {
	Src, Dst Addr
	TTL      uint8
	Proto    Proto

	// Transport layer (TCP/UDP).
	SrcPort, DstPort uint16
	Flags            TCPFlags
	Seq              uint32

	// PayloadLen is the size of the (unmaterialized) application payload.
	PayloadLen uint16

	ICMP  *ICMPInfo
	Probe *ProbeInfo

	// Suspicion is the dataplane classification tag (0 = clean). It is
	// carried in the FastFlex option so downstream mitigation PPMs can act
	// on upstream detector output, per §3.1's state-sharing edges.
	Suspicion uint8

	// Hops counts switch hops traversed (an INT-style header field).
	// Topology obfuscation uses it to synthesize positionally-stable
	// traceroute responses.
	Hops uint8

	// pooled marks a packet born from a Pool (set by Get, for life); only
	// such packets are ever recycled. See Pool for the ownership contract.
	pooled bool
	// flowKey and flowHash are the Flow memo, valid when flowOK.
	flowOK   bool
	flowKey  FlowKey
	flowHash uint64
	// probeBuf is a pooled packet's own ProbeInfo, attached the first time
	// the packet serves as a probe and reused every time after.
	probeBuf *ProbeInfo
}

// FlowKey identifies a five-tuple flow. It is a fixed-size array (not a
// slice) so it is comparable and map-key-ready without allocation.
type FlowKey [13]byte

// Key returns the packet's five-tuple flow key.
func (p *Packet) Key() FlowKey {
	var k FlowKey
	binary.BigEndian.PutUint32(k[0:4], uint32(p.Src))
	binary.BigEndian.PutUint32(k[4:8], uint32(p.Dst))
	k[8] = byte(p.Proto)
	binary.BigEndian.PutUint16(k[9:11], p.SrcPort)
	binary.BigEndian.PutUint16(k[11:13], p.DstPort)
	return k
}

// Flow returns the packet's five-tuple key and its table hash
// (FlowKey.TableHash), derived on the first call and remembered: the parser
// of a hardware pipeline extracts header metadata once and every stage
// matches on it, and so do the flow tables here — a packet crosses several
// switches and several tables per switch, all asking for the same pair. The
// memo is sound because the five-tuple is frozen once Flow has been called
// (see Packet); Pool.Put forgets it, Pool.Clone and Clone carry it over, and
// Unmarshal overwrites it with the rest of the packet.
//
//ffvet:hotpath
func (p *Packet) Flow() (FlowKey, uint64) {
	if !p.flowOK {
		p.deriveFlow()
	}
	return p.flowKey, p.flowHash
}

// deriveFlow fills the Flow memo. It is kept out of Flow so that the
// memoized read inlines into the flow tables' lookups.
func (p *Packet) deriveFlow() {
	p.flowKey = p.Key()
	p.flowHash = p.flowKey.TableHash()
	p.flowOK = true
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	var r FlowKey
	copy(r[0:4], k[4:8])
	copy(r[4:8], k[0:4])
	r[8] = k[8]
	copy(r[9:11], k[11:13])
	copy(r[11:13], k[9:11])
	return r
}

// Src returns the source address encoded in the key.
func (k FlowKey) Src() Addr { return Addr(binary.BigEndian.Uint32(k[0:4])) }

// Dst returns the destination address encoded in the key.
func (k FlowKey) Dst() Addr { return Addr(binary.BigEndian.Uint32(k[4:8])) }

// Hash returns a 64-bit FNV-1a hash of the key, used to index sketches.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// TableHash mixes the five-tuple into a table index. Two overlapping 8-byte
// loads cover the 13-byte key without a length-dispatched hash loop; it is
// the index hash of the open-addressed flow structures in sketch and the
// boosters, which read it through Packet.Flow. (Hash stays the sketch-row
// hash — changing that would move every sketch counter.)
func (k FlowKey) TableHash() uint64 {
	a := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
		uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
	b := uint64(k[5]) | uint64(k[6])<<8 | uint64(k[7])<<16 | uint64(k[8])<<24 |
		uint64(k[9])<<32 | uint64(k[10])<<40 | uint64(k[11])<<48 | uint64(k[12])<<56
	h := a ^ b*0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Wire-format section sizes.
const (
	baseHeaderLen = 16 // src(4) dst(4) ttl(1) proto(1) suspicion(1) hops(1) plen(2) l4len(2)
	transportLen  = 9  // sport(2) dport(2) flags(1) seq(4)
	icmpLen       = 10 // type(1) from(4) origseq(4) origttl(1)
	probeFixedLen = 23 // see probe.go
	maxStateLen   = 1 << 12
)

// MinWireLen is the smallest wire size Len can return (a bare network
// header). The simulator uses it to bound worst-case queue occupancy: a
// byte-capped FIFO can never hold more than cap/MinWireLen packets.
const MinWireLen = baseHeaderLen

// Len returns the packet's total wire size in bytes, the number used for
// transmission-time and queue-occupancy accounting.
func (p *Packet) Len() int {
	n := baseHeaderLen + int(p.PayloadLen)
	switch p.Proto {
	case ProtoTCP, ProtoUDP:
		n += transportLen
	case ProtoICMP:
		n += icmpLen
	case ProtoProbe:
		n += probeFixedLen
		if p.Probe != nil {
			n += len(p.Probe.State)
		}
	}
	return n
}

// Marshal appends the packet's wire encoding to buf and returns the
// extended slice.
func (p *Packet) Marshal(buf []byte) ([]byte, error) {
	var l4 []byte
	switch p.Proto {
	case ProtoTCP, ProtoUDP:
		l4 = binary.BigEndian.AppendUint16(make([]byte, 0, transportLen), p.SrcPort)
		l4 = binary.BigEndian.AppendUint16(l4, p.DstPort)
		l4 = binary.BigEndian.AppendUint32(append(l4, byte(p.Flags)), p.Seq)
	case ProtoICMP:
		if p.ICMP == nil {
			return nil, errors.New("packet: ICMP proto without ICMP layer")
		}
		l4 = binary.BigEndian.AppendUint32([]byte{byte(p.ICMP.Type)}, uint32(p.ICMP.From))
		l4 = append(binary.BigEndian.AppendUint32(l4, p.ICMP.OrigSeq), p.ICMP.OrigTTL)
	case ProtoProbe:
		if p.Probe == nil {
			return nil, errors.New("packet: probe proto without probe layer")
		}
		var err error
		if l4, err = p.Probe.marshal(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("packet: cannot marshal protocol %v", p.Proto)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Dst))
	buf = append(buf, p.TTL, byte(p.Proto), p.Suspicion, p.Hops)
	buf = binary.BigEndian.AppendUint16(buf, p.PayloadLen)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(l4)))
	return append(buf, l4...), nil
}

// Unmarshal decodes one packet from data into p (overwriting all fields,
// the Flow memo included; a pooled packet stays pooled) and returns the
// number of bytes consumed. The application payload is represented only by
// PayloadLen and occupies no wire bytes.
func (p *Packet) Unmarshal(data []byte) (int, error) {
	if len(data) < baseHeaderLen {
		return 0, fmt.Errorf("packet: short header: %d bytes", len(data))
	}
	*p = Packet{
		pooled:     p.pooled,
		probeBuf:   p.probeBuf,
		Src:        Addr(binary.BigEndian.Uint32(data[0:4])),
		Dst:        Addr(binary.BigEndian.Uint32(data[4:8])),
		TTL:        data[8],
		Proto:      Proto(data[9]),
		Suspicion:  data[10],
		Hops:       data[11],
		PayloadLen: binary.BigEndian.Uint16(data[12:14]),
	}
	l4len := int(binary.BigEndian.Uint16(data[14:16]))
	rest := data[baseHeaderLen:]
	if len(rest) < l4len {
		return 0, fmt.Errorf("packet: short L4: have %d, want %d", len(rest), l4len)
	}
	l4 := rest[:l4len]
	switch p.Proto {
	case ProtoTCP, ProtoUDP:
		if l4len != transportLen {
			return 0, fmt.Errorf("packet: bad transport length %d", l4len)
		}
		p.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.Flags = TCPFlags(l4[4])
		p.Seq = binary.BigEndian.Uint32(l4[5:9])
	case ProtoICMP:
		if l4len != icmpLen {
			return 0, fmt.Errorf("packet: bad ICMP length %d", l4len)
		}
		p.ICMP = &ICMPInfo{
			Type:    ICMPType(l4[0]),
			From:    Addr(binary.BigEndian.Uint32(l4[1:5])),
			OrigSeq: binary.BigEndian.Uint32(l4[5:9]),
			OrigTTL: l4[9],
		}
	case ProtoProbe:
		pi := new(ProbeInfo)
		if err := pi.unmarshal(l4); err != nil {
			return 0, err
		}
		p.Probe = pi
	default:
		return 0, fmt.Errorf("packet: cannot decode protocol %d", data[9])
	}
	return baseHeaderLen + l4len, nil
}

// Clone returns a deep copy on the heap: like any packet not born from a
// Pool it is never recycled. The simulator's fan-out paths (probe flooding)
// use Pool.Clone instead.
func (p *Packet) Clone() *Packet {
	q := new(Packet)
	q.copyFrom(p)
	return q
}

// copyFrom makes p a deep copy of src — header, layers, Flow memo — while p
// keeps its own identity: whether it is pooled, and its probe buffer, which
// receives src's probe layer when src has one.
func (p *Packet) copyFrom(src *Packet) {
	pooled, buf := p.pooled, p.probeBuf
	*p = *src
	p.pooled, p.probeBuf = pooled, buf
	if src.ICMP != nil {
		ic := *src.ICMP
		p.ICMP = &ic
	}
	if src.Probe != nil {
		pi := p.attachProbe()
		state := pi.State[:0]
		*pi = *src.Probe
		pi.State = append(state, src.Probe.State...)
	}
}

// attachProbe makes p's own probe buffer its Probe layer and returns it,
// contents as they were left: the buffer is allocated on first use and, on
// a pooled packet, kept for life (State keeps its capacity too).
func (p *Packet) attachProbe() *ProbeInfo {
	pi := p.probeBuf
	if pi == nil {
		pi = new(ProbeInfo)
		if p.pooled {
			p.probeBuf = pi
		}
	}
	p.Probe = pi
	return pi
}

// String renders a compact human-readable description for traces.
func (p *Packet) String() string {
	switch p.Proto {
	case ProtoICMP:
		return fmt.Sprintf("%v->%v icmp t=%d from=%v", p.Src, p.Dst, p.ICMP.Type, p.ICMP.From)
	case ProtoProbe:
		return fmt.Sprintf("%v->%v %v", p.Src, p.Dst, p.Probe)
	default:
		return fmt.Sprintf("%v:%d->%v:%d %v len=%d susp=%d",
			p.Src, p.SrcPort, p.Dst, p.DstPort, p.Proto, p.Len(), p.Suspicion)
	}
}
