package packet

import (
	"encoding/binary"
	"fmt"
)

// ProbeKind discriminates the FastFlex probe header's purpose.
type ProbeKind uint8

// Probe kinds. They map one-to-one onto the distributed-control mechanisms
// of §3.3–3.4: mode-change alarms, Hula-style utilization probes, and
// piggybacked state transfer. Kind is mixed into the dataplane's probe
// dedup hash, so the values are fixed: 3 is a reserved gap.
const (
	// ProbeModeChange carries an attack alarm that activates (or, with
	// Clear set, deactivates) a defense mode in a region.
	ProbeModeChange ProbeKind = iota + 1
	// ProbeUtil carries best-path utilization toward a destination switch,
	// as in Hula/Contra.
	ProbeUtil
	_
	// ProbeState carries a chunk of register state being transferred off a
	// switch that is about to be repurposed, possibly with FEC parity.
	ProbeState
)

func (k ProbeKind) String() string {
	switch k {
	case ProbeModeChange:
		return "mode-change"
	case ProbeUtil:
		return "util"
	case ProbeState:
		return "state"
	}
	return fmt.Sprintf("probe-kind-%d", uint8(k))
}

// ProbeInfo is the FastFlex probe header.
type ProbeInfo struct {
	Kind ProbeKind

	// Origin is the router address of the switch that emitted the probe.
	Origin Addr
	// Seq is a per-origin sequence number used for duplicate suppression
	// during flood propagation.
	Seq uint32
	// HopsLeft bounds flooding scope; decremented per switch hop.
	HopsLeft uint8

	// Mode-change fields: the mode being activated, the region it applies
	// to, and whether this is an activation or a clear.
	Mode   uint8
	Region uint16
	Clear  bool

	// Util fields: utilization (micro-units, 1e6 = 100%) of the best path
	// from the receiving switch via Origin toward DstSwitch.
	UtilMicro uint32
	DstSwitch uint16

	// State-transfer fields: chunked register state with optional XOR
	// parity for FEC (§3.4).
	StateID   uint16 // transfer session
	ChunkIdx  uint16
	ChunkCnt  uint16
	FECParity bool
	State     []byte
}

// Fixed-section layout (probeFixedLen = 23 bytes, see packet.go):
// kind(1) origin(4) seq(4) hops(1) mode(1) region(2) flags(1) util(4)
// dstsw(2) kind-specific(3). Bytes 20–22 are kind-specific: ProbeState packs
// session/chunk-index/chunk-count; every other kind leaves them zero.
func (pi *ProbeInfo) marshal() ([]byte, error) {
	if len(pi.State) > maxStateLen {
		return nil, fmt.Errorf("packet: state chunk %d exceeds max %d", len(pi.State), maxStateLen)
	}
	buf := make([]byte, probeFixedLen, probeFixedLen+len(pi.State))
	buf[0] = byte(pi.Kind)
	binary.BigEndian.PutUint32(buf[1:5], uint32(pi.Origin))
	binary.BigEndian.PutUint32(buf[5:9], pi.Seq)
	buf[9] = pi.HopsLeft
	buf[10] = pi.Mode
	binary.BigEndian.PutUint16(buf[11:13], pi.Region)
	var flags byte
	if pi.Clear {
		flags |= 1
	}
	if pi.FECParity {
		flags |= 2
	}
	buf[13] = flags
	binary.BigEndian.PutUint32(buf[14:18], pi.UtilMicro)
	binary.BigEndian.PutUint16(buf[18:20], pi.DstSwitch)
	if pi.Kind == ProbeState {
		if pi.StateID > 0xFF || pi.ChunkIdx > 0xFF || pi.ChunkCnt > 0xFF {
			return nil, fmt.Errorf("packet: state chunk fields exceed 8 bits: id=%d idx=%d cnt=%d",
				pi.StateID, pi.ChunkIdx, pi.ChunkCnt)
		}
		buf[20] = byte(pi.StateID)
		buf[21] = byte(pi.ChunkIdx)
		buf[22] = byte(pi.ChunkCnt)
	}
	return append(buf, pi.State...), nil
}

func (pi *ProbeInfo) unmarshal(data []byte) error {
	if err := checkProbeLen(len(data)); err != nil {
		return err
	}
	*pi = ProbeInfo{
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
	if pi.Kind == ProbeState {
		pi.StateID = uint16(data[20])
		pi.ChunkIdx = uint16(data[21])
		pi.ChunkCnt = uint16(data[22])
	}
	if len(data) > probeFixedLen {
		pi.State = append([]byte(nil), data[probeFixedLen:]...)
	}
	return nil
}

// checkProbeLen bounds a probe layer of n wire bytes on the way in, by what
// marshal accepts on the way out.
func checkProbeLen(n int) error {
	if n < probeFixedLen {
		return fmt.Errorf("packet: short probe header: %d bytes", n)
	}
	if n-probeFixedLen > maxStateLen {
		return fmt.Errorf("packet: state chunk %d exceeds max %d", n-probeFixedLen, maxStateLen)
	}
	return nil
}

// DedupKey identifies a probe origin+sequence pair for flood duplicate
// suppression.
type DedupKey struct {
	Origin Addr
	Seq    uint32
	Kind   ProbeKind
}

// Dedup returns the probe's duplicate-suppression key.
func (pi *ProbeInfo) Dedup() DedupKey {
	return DedupKey{Origin: pi.Origin, Seq: pi.Seq, Kind: pi.Kind}
}

func (pi *ProbeInfo) String() string {
	switch pi.Kind {
	case ProbeModeChange:
		verb := "set"
		if pi.Clear {
			verb = "clear"
		}
		return fmt.Sprintf("probe[%s mode=%d region=%d origin=%v seq=%d hops=%d]",
			verb, pi.Mode, pi.Region, pi.Origin, pi.Seq, pi.HopsLeft)
	case ProbeUtil:
		return fmt.Sprintf("probe[util dst=sw%d u=%.3f origin=%v]",
			pi.DstSwitch, float64(pi.UtilMicro)/1e6, pi.Origin)
	case ProbeState:
		return fmt.Sprintf("probe[state id=%d chunk=%d/%d parity=%v len=%d]",
			pi.StateID, pi.ChunkIdx, pi.ChunkCnt, pi.FECParity, len(pi.State))
	}
	return fmt.Sprintf("probe[kind=%d]", pi.Kind)
}
