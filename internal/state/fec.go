// Package state implements §3.4's dynamic-scaling machinery: snapshotting
// dataplane register state, transferring it across the network in probe
// packets protected by XOR-parity FEC (so the transfer survives packet
// loss without a software controller in the loop), and repurposing
// switches with neighbor notification and fast reroute masking the
// reconfiguration blackout.
package state

import (
	"encoding/binary"
	"fmt"

	"fastflex/internal/packet"
)

// FECConfig tunes the chunk/parity encoding.
type FECConfig struct {
	// ChunkSize is the state bytes per probe (default 512, max 4096).
	ChunkSize int
	// GroupSize is data chunks per parity group; one XOR parity chunk is
	// added per group (default 4). Any single loss within a group is
	// recoverable.
	GroupSize int
	// Parity disables FEC entirely when false — ablation A5's baseline.
	Parity bool
}

func (c *FECConfig) fillDefaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = 512
	}
	if c.ChunkSize > 4096 {
		c.ChunkSize = 4096
	}
	if c.GroupSize == 0 {
		c.GroupSize = 4
	}
}

// maxChunks is bounded by the 8-bit chunk index on the wire.
const maxChunks = 255

// Encode splits a state blob into ProbeState headers: data chunks plus (if
// cfg.Parity) one XOR parity chunk per group. The blob is prefixed with its
// length so Decode can strip padding.
func Encode(stateID uint16, blob []byte, cfg FECConfig) ([]*packet.ProbeInfo, error) {
	cfg.fillDefaults()
	framed := make([]byte, 4+len(blob))
	binary.BigEndian.PutUint32(framed[0:4], uint32(len(blob)))
	copy(framed[4:], blob)

	nChunks := (len(framed) + cfg.ChunkSize - 1) / cfg.ChunkSize
	if nChunks == 0 {
		nChunks = 1
	}
	if nChunks > maxChunks {
		return nil, fmt.Errorf("state: blob of %d bytes needs %d chunks, max %d (raise ChunkSize)",
			len(blob), nChunks, maxChunks)
	}
	if stateID > 0xFF {
		return nil, fmt.Errorf("state: stateID %d exceeds 8 bits", stateID)
	}
	var probes []*packet.ProbeInfo
	for i := 0; i < nChunks; i++ {
		start := i * cfg.ChunkSize
		end := start + cfg.ChunkSize
		if end > len(framed) {
			end = len(framed)
		}
		chunk := make([]byte, cfg.ChunkSize)
		copy(chunk, framed[start:end])
		probes = append(probes, &packet.ProbeInfo{
			Kind:     packet.ProbeState,
			StateID:  stateID,
			ChunkIdx: uint16(i),
			ChunkCnt: uint16(nChunks),
			State:    chunk,
		})
	}
	if cfg.Parity {
		for g := 0; g*cfg.GroupSize < nChunks; g++ {
			par := make([]byte, cfg.ChunkSize)
			for i := g * cfg.GroupSize; i < (g+1)*cfg.GroupSize && i < nChunks; i++ {
				for b := range par {
					par[b] ^= probes[i].State[b]
				}
			}
			probes = append(probes, &packet.ProbeInfo{
				Kind:      packet.ProbeState,
				StateID:   stateID,
				ChunkIdx:  uint16(g),
				ChunkCnt:  uint16(nChunks),
				FECParity: true,
				State:     par,
			})
		}
	}
	return probes, nil
}

// Reassembler collects chunks of one transfer and recovers losses from
// parity. The zero value is unusable; create with NewReassembler using the
// same FECConfig as the encoder.
type Reassembler struct {
	cfg     FECConfig
	chunks  map[uint16][]byte // data chunks by index
	parity  map[uint16][]byte // parity chunks by group
	nChunks int
}

// NewReassembler returns an empty reassembler.
func NewReassembler(cfg FECConfig) *Reassembler {
	cfg.fillDefaults()
	return &Reassembler{
		cfg:    cfg,
		chunks: make(map[uint16][]byte),
		parity: make(map[uint16][]byte),
	}
}

// Add folds in one received chunk. Duplicates are ignored. The chunk's
// bytes are copied: pi and pi.State belong to the packet that carried them,
// which is recycled when its pipeline pass ends (packet.Pool).
func (r *Reassembler) Add(pi *packet.ProbeInfo) {
	if pi.Kind != packet.ProbeState {
		return
	}
	if r.nChunks == 0 {
		r.nChunks = int(pi.ChunkCnt)
	}
	if pi.FECParity {
		if _, ok := r.parity[pi.ChunkIdx]; !ok {
			r.parity[pi.ChunkIdx] = append([]byte(nil), pi.State...)
		}
		return
	}
	if _, ok := r.chunks[pi.ChunkIdx]; !ok {
		r.chunks[pi.ChunkIdx] = append([]byte(nil), pi.State...)
	}
}

// recover attempts parity recovery of missing data chunks (one per group).
func (r *Reassembler) recover() {
	if !r.cfg.Parity {
		return
	}
	//ffvet:ok groups recover disjoint chunk ranges; order-independent
	for g, par := range r.parity {
		lo := int(g) * r.cfg.GroupSize
		hi := lo + r.cfg.GroupSize
		if hi > r.nChunks {
			hi = r.nChunks
		}
		missing := -1
		for i := lo; i < hi; i++ {
			if _, ok := r.chunks[uint16(i)]; !ok {
				if missing >= 0 {
					missing = -2 // two losses in one group: unrecoverable
					break
				}
				missing = i
			}
		}
		if missing < 0 {
			continue
		}
		rec := make([]byte, len(par))
		copy(rec, par)
		for i := lo; i < hi; i++ {
			if i == missing {
				continue
			}
			for b := range rec {
				rec[b] ^= r.chunks[uint16(i)][b]
			}
		}
		r.chunks[uint16(missing)] = rec
	}
}

// Complete reports whether the blob can be reconstructed (after parity
// recovery).
func (r *Reassembler) Complete() bool {
	if r.nChunks == 0 {
		return false
	}
	r.recover()
	return len(r.chunks) >= r.nChunks
}

// Data reconstructs the original blob; it fails if chunks are missing.
func (r *Reassembler) Data() ([]byte, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("state: incomplete transfer: %d of %d chunks", len(r.chunks), r.nChunks)
	}
	framed := make([]byte, 0, r.nChunks*r.cfg.ChunkSize)
	for i := 0; i < r.nChunks; i++ {
		framed = append(framed, r.chunks[uint16(i)]...)
	}
	if len(framed) < 4 {
		return nil, fmt.Errorf("state: framed data too short")
	}
	n := binary.BigEndian.Uint32(framed[0:4])
	if int(n) > len(framed)-4 {
		return nil, fmt.Errorf("state: framed length %d exceeds payload %d", n, len(framed)-4)
	}
	return framed[4 : 4+n], nil
}
