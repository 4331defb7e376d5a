package state

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Receiver is the PPM that terminates state transfers: it consumes
// ProbeState packets addressed to its switch, reassembles them per
// (origin, session), and hands completed blobs to OnComplete. Install it
// at PriControl so it sees the probes before the router consumes them.
type Receiver struct {
	self topo.NodeID
	cfg  FECConfig

	sessions map[sessionKey]*Reassembler

	// OnComplete receives each fully reassembled transfer.
	OnComplete func(origin topo.NodeID, stateID uint16, blob []byte)

	Completed uint64
}

type sessionKey struct {
	origin  packet.Addr
	stateID uint16
}

// NewReceiver builds a state-transfer receiver for one switch. The FEC
// configuration must match the sender's.
func NewReceiver(self topo.NodeID, cfg FECConfig) *Receiver {
	cfg.fillDefaults()
	return &Receiver{self: self, cfg: cfg, sessions: make(map[sessionKey]*Reassembler)}
}

// Name implements PPM.
func (r *Receiver) Name() string { return fmt.Sprintf("state-recv@%d", r.self) }

// ResetRun implements dataplane.RunResettable: in-flight reassembly sessions
// and the completion counter clear, and the OnComplete hook detaches —
// core.New leaves it nil, and anything hooked later (a Replicator, a test)
// is scenario state the next run re-wires.
func (r *Receiver) ResetRun() {
	clear(r.sessions)
	r.OnComplete = nil
	r.Completed = 0
}

// Resources implements PPM: reassembly buffers.
func (r *Receiver) Resources() dataplane.Resources {
	return dataplane.Resources{Stages: 1, SRAMKB: 64, ALUs: 1}
}

// Process implements PPM.
func (r *Receiver) Process(ctx *dataplane.Context) dataplane.Verdict {
	p := ctx.Pkt
	if p.Proto != packet.ProtoProbe || p.Probe.Kind != packet.ProbeState {
		return dataplane.Continue
	}
	if p.Dst != packet.RouterAddr(int(r.self)) {
		return dataplane.Continue // transit; let routing forward it
	}
	key := sessionKey{origin: p.Probe.Origin, stateID: p.Probe.StateID}
	ra, ok := r.sessions[key]
	if !ok {
		ra = NewReassembler(r.cfg)
		r.sessions[key] = ra
	}
	ra.Add(p.Probe)
	if ra.Complete() {
		blob, err := ra.Data()
		delete(r.sessions, key)
		if err == nil {
			r.Completed++
			if r.OnComplete != nil {
				r.OnComplete(topo.NodeID(p.Probe.Origin.Node()), key.stateID, blob)
			}
		}
	}
	return dataplane.Consume
}

// Send encodes a blob and injects the chunk probes at the origin switch,
// addressed to the destination switch's router address. They ride the
// normal forwarding paths (the "piggybacked across the network" transport
// of [53]); loss is tolerated via the FEC parity.
func Send(n *netsim.Network, from, to topo.NodeID, stateID uint16, blob []byte, cfg FECConfig) (int, error) {
	probes, err := Encode(stateID, blob, cfg)
	if err != nil {
		return 0, err
	}
	origin := packet.RouterAddr(int(from))
	dst := packet.RouterAddr(int(to))
	for i, pi := range probes {
		pi.Origin = origin
		pi.Seq = uint32(i)
		pkt := &packet.Packet{
			Src: origin, Dst: dst, TTL: 64,
			Proto: packet.ProtoProbe, Probe: pi,
		}
		n.OriginateAt(from, pkt)
	}
	return len(probes), nil
}

// RouterRoutesForSwitches installs router-address routes so state probes
// can be forwarded between switches (the base TE only installs host
// routes). Call once at setup.
func RouterRoutesForSwitches(n *netsim.Network) {
	switches := n.G.Switches()
	for _, sw := range switches {
		tree := n.G.ShortestPathTree(sw, nil)
		for _, other := range switches {
			if sw == other {
				continue
			}
			p, ok := tree.PathTo(other)
			if !ok || len(p.Links) == 0 {
				continue
			}
			n.Router(sw).SetRoute(packet.RouterAddr(int(other)), p.Links[0])
		}
	}
}

// SnapshotBundle serializes a switch's full Stateful-program state map into
// one blob (name-length-prefixed records).
func SnapshotBundle(snaps map[string][]byte) []byte {
	// Deterministic order.
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []byte
	for _, name := range names {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(name)))
		binary.BigEndian.PutUint32(hdr[4:8], uint32(len(snaps[name])))
		out = append(out, hdr[:]...)
		out = append(out, name...)
		out = append(out, snaps[name]...)
	}
	return out
}

// ParseBundle reverses SnapshotBundle.
func ParseBundle(blob []byte) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for len(blob) > 0 {
		if len(blob) < 8 {
			return nil, fmt.Errorf("state: truncated bundle header")
		}
		nameLen := int(binary.BigEndian.Uint32(blob[0:4]))
		dataLen := int(binary.BigEndian.Uint32(blob[4:8]))
		blob = blob[8:]
		if len(blob) < nameLen+dataLen {
			return nil, fmt.Errorf("state: truncated bundle record")
		}
		name := string(blob[:nameLen])
		out[name] = append([]byte(nil), blob[nameLen:nameLen+dataLen]...)
		blob = blob[nameLen+dataLen:]
	}
	return out, nil
}

// Replicator periodically snapshots a switch's stateful programs and ships
// the bundle to a replica switch, so critical state survives switch
// failure (§3.4). Restore the latest bundle with Latest().
type Replicator struct {
	net     *netsim.Network
	src     topo.NodeID
	replica topo.NodeID
	id      uint16
	cfg     FECConfig

	latest   map[string][]byte
	Shipped  uint64
	Restored uint64
}

// NewReplicator wires periodic replication from src to replica every
// period. The replica switch must have a Receiver installed; this
// constructor hooks its OnComplete.
func NewReplicator(n *netsim.Network, src, replica topo.NodeID, recv *Receiver,
	id uint16, period time.Duration, cfg FECConfig) *Replicator {
	r := &Replicator{net: n, src: src, replica: replica, id: id, cfg: cfg}
	prev := recv.OnComplete
	recv.OnComplete = func(origin topo.NodeID, stateID uint16, blob []byte) {
		if origin == src && stateID == id {
			if m, err := ParseBundle(blob); err == nil {
				r.latest = m
			}
			return
		}
		if prev != nil {
			prev(origin, stateID, blob)
		}
	}
	eventsim.NewTicker(n.Eng, n.Owner(netsim.SiteReplicate), period, func() {
		sw := n.Switch(src)
		if sw == nil || sw.Reconfiguring {
			return
		}
		snaps := sw.SnapshotAll()
		if len(snaps) == 0 {
			return
		}
		if _, err := Send(n, src, replica, id, SnapshotBundle(snaps), cfg); err == nil {
			r.Shipped++
		}
	})
	return r
}

// Latest returns the most recent replicated state map (nil before the
// first completed shipment).
func (r *Replicator) Latest() map[string][]byte { return r.latest }

// RestoreTo loads the latest replica into a target switch's programs.
func (r *Replicator) RestoreTo(target topo.NodeID) error {
	if r.latest == nil {
		return fmt.Errorf("state: no replica available")
	}
	sw := r.net.Switch(target)
	if sw == nil {
		return fmt.Errorf("state: node %d is not a switch", target)
	}
	r.Restored++
	return sw.RestoreAll(r.latest)
}
