package packet

import (
	"encoding/binary"
	"fmt"
)

// Decoder decodes packets into preallocated storage, following the
// gopacket DecodingLayerParser idiom: the caller owns one Decoder per
// processing context and reuses it for every packet, so steady-state
// decoding performs no heap allocation (Packet.Unmarshal, by contrast,
// allocates fresh ICMP/Probe layers per packet).
//
// The decoded packet aliases the Decoder's internal storage: it is valid
// only until the next DecodeInto call.
type Decoder struct {
	pkt   Packet
	icmp  ICMPInfo
	probe ProbeInfo
	state []byte
}

// DecodeInto decodes one packet from data, returning a pointer into the
// decoder's reusable storage and the number of bytes consumed.
func (d *Decoder) DecodeInto(data []byte) (*Packet, int, error) {
	if len(data) < baseHeaderLen {
		return nil, 0, fmt.Errorf("packet: short header: %d bytes", len(data))
	}
	d.pkt = Packet{
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
		return nil, 0, fmt.Errorf("packet: short L4: have %d, want %d", len(rest), l4len)
	}
	l4 := rest[:l4len]
	switch d.pkt.Proto {
	case ProtoTCP, ProtoUDP:
		if l4len != transportLen {
			return nil, 0, fmt.Errorf("packet: bad transport length %d", l4len)
		}
		d.pkt.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		d.pkt.DstPort = binary.BigEndian.Uint16(l4[2:4])
		d.pkt.Flags = TCPFlags(l4[4])
		d.pkt.Seq = binary.BigEndian.Uint32(l4[5:9])
	case ProtoICMP:
		if l4len != icmpLen {
			return nil, 0, fmt.Errorf("packet: bad ICMP length %d", l4len)
		}
		d.icmp = ICMPInfo{
			Type:    ICMPType(l4[0]),
			From:    Addr(binary.BigEndian.Uint32(l4[1:5])),
			OrigSeq: binary.BigEndian.Uint32(l4[5:9]),
			OrigTTL: l4[9],
		}
		d.pkt.ICMP = &d.icmp
	case ProtoProbe:
		if err := d.decodeProbe(l4); err != nil {
			return nil, 0, err
		}
		d.pkt.Probe = &d.probe
	default:
		return nil, 0, fmt.Errorf("packet: cannot decode protocol %d", data[9])
	}
	return &d.pkt, baseHeaderLen + l4len, nil
}

// decodeProbe mirrors ProbeInfo.unmarshal but reuses the decoder's state
// buffer instead of allocating.
func (d *Decoder) decodeProbe(data []byte) error {
	if err := checkProbeLen(len(data)); err != nil {
		return err
	}
	d.probe = ProbeInfo{
		Kind:      ProbeKind(data[0]),
		Origin:    Addr(binary.BigEndian.Uint32(data[1:5])),
		Seq:       binary.BigEndian.Uint32(data[5:9]),
		HopsLeft:  data[9],
		Mode:      data[10],
		Region:    binary.BigEndian.Uint16(data[11:13]),
		Clear:     data[13]&1 != 0,
		FECParity: data[13]&2 != 0,
		UtilMicro: binary.BigEndian.Uint32(data[14:18]),
		DstSwitch: binary.BigEndian.Uint16(data[18:20]),
	}
	switch d.probe.Kind {
	case ProbeSync:
		d.probe.SyncCount = uint32(data[20])<<16 | uint32(binary.BigEndian.Uint16(data[21:23]))
	case ProbeState:
		d.probe.StateID = uint16(data[20])
		d.probe.ChunkIdx = uint16(data[21])
		d.probe.ChunkCnt = uint16(data[22])
	}
	if len(data) > probeFixedLen {
		d.state = append(d.state[:0], data[probeFixedLen:]...)
		d.probe.State = d.state
	}
	return nil
}
