package netsim

import (
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Host is the runtime of an endpoint node: it sinks traffic, keeps receive
// statistics, auto-ACKs TCP data for the AIMD sources, and dispatches ICMP
// to registered handlers (traceroute).
type Host struct {
	net  *Network
	node topo.NodeID
	addr packet.Addr

	// Receive accounting. Host and router addresses encode a dense node
	// index, so the common path is a slice indexed by sender node; other
	// address shapes fall back to the map. lastSrc/lastStat memo the most
	// recent sender's entry: deliveries cluster by flow, so the common
	// case skips even the slice lookup.
	recv      []*hostStat
	recvOther map[packet.Addr]*hostStat
	lastSrc   packet.Addr
	lastStat  *hostStat

	// icmpHandlers receive every ICMP packet delivered to this host,
	// keyed so transient listeners (traceroute) can deregister.
	icmpHandlers map[int]func(*packet.Packet)
	nextICMPID   int
	// ackHandlers receive TCP ACK packets, keyed by local port.
	ackHandlers map[uint16]func(*packet.Packet)
	// sink, if set, observes every delivered packet.
	sink func(now time.Duration, p *packet.Packet)
}

func newHost(n *Network, node topo.NodeID) *Host {
	return &Host{
		net:          n,
		node:         node,
		addr:         packet.HostAddr(int(node)),
		recv:         make([]*hostStat, len(n.G.Nodes)),
		ackHandlers:  make(map[uint16]func(*packet.Packet)),
		icmpHandlers: make(map[int]func(*packet.Packet)),
	}
}

// hostStat is one sender's receive counters.
type hostStat struct {
	bytes uint64
	pkts  uint64
}

// account charges one delivered data packet to its sender's counters.
func (h *Host) account(p *packet.Packet) {
	st := h.lastStat
	if st == nil || p.Src != h.lastSrc {
		st = h.stat(p.Src)
		h.lastSrc, h.lastStat = p.Src, st
	}
	st.bytes += uint64(p.PayloadLen)
	st.pkts++
}

// stat returns (creating if needed) the counters for one sender address.
func (h *Host) stat(src packet.Addr) *hostStat {
	if n := src.Node(); uint(n) < uint(len(h.recv)) {
		st := h.recv[n]
		if st == nil {
			st = &hostStat{}
			h.recv[n] = st
		}
		return st
	}
	st := h.recvOther[src]
	if st == nil {
		st = &hostStat{}
		if h.recvOther == nil {
			h.recvOther = make(map[packet.Addr]*hostStat)
		}
		h.recvOther[src] = st
	}
	return st
}

// Addr returns the host's network address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Node returns the host's topology node ID.
func (h *Host) Node() topo.NodeID { return h.node }

// RecvBytes returns the total bytes received from src.
func (h *Host) RecvBytes(src packet.Addr) uint64 {
	if n := src.Node(); uint(n) < uint(len(h.recv)) {
		if st := h.recv[n]; st != nil {
			return st.bytes
		}
		return 0
	}
	if st := h.recvOther[src]; st != nil {
		return st.bytes
	}
	return 0
}

// TotalRecvBytes returns all application bytes received.
func (h *Host) TotalRecvBytes() uint64 {
	var t uint64
	for _, st := range h.recv {
		if st != nil {
			t += st.bytes
		}
	}
	//ffvet:ok summing byte counts is order-independent
	for _, st := range h.recvOther {
		t += st.bytes
	}
	return t
}

// OnICMP registers a handler for ICMP packets delivered to this host and
// returns a deregistration function.
func (h *Host) OnICMP(fn func(*packet.Packet)) (cancel func()) {
	id := h.nextICMPID
	h.nextICMPID++
	h.icmpHandlers[id] = fn
	return func() { delete(h.icmpHandlers, id) }
}

// OnSink registers an observer for every delivered packet. It runs inside
// the host's partition, and now is that partition's clock: the delivery
// instant, which Network.Now (the coordinator clock) can trail by up to a
// window. Packets seen by a sink are not recycled, so it may retain them.
func (h *Host) OnSink(fn func(now time.Duration, p *packet.Packet)) { h.sink = fn }

func (h *Host) receive(p *packet.Packet, in topo.LinkID) {
	if h.sink != nil {
		h.sink(h.net.shardAt(h.node).eng.Now(), p)
	}
	switch p.Proto {
	case packet.ProtoICMP:
		// Sorted so handlers with side effects fire in registration order,
		// not map order.
		for _, id := range eventsim.SortedKeys(h.icmpHandlers) {
			h.icmpHandlers[id](p)
		}
	case packet.ProtoTCP:
		if p.Flags&packet.FlagACK != 0 && p.PayloadLen == 0 {
			// Pure ACK: hand to the sending application on that port.
			if fn, ok := h.ackHandlers[p.DstPort]; ok {
				fn(p)
			}
			return
		}
		h.account(p)
		// Auto-ACK data so window-based senders can clock themselves.
		// receive runs inside the host's shard, so allocate there.
		ack := h.net.PoolAt(h.node).Get()
		ack.Src, ack.Dst, ack.TTL, ack.Proto = h.addr, p.Src, 64, packet.ProtoTCP
		ack.SrcPort, ack.DstPort = p.DstPort, p.SrcPort
		ack.Flags, ack.Seq = packet.FlagACK, p.Seq
		h.net.SendFromHost(h.node, ack)
	default:
		h.account(p)
	}
}

// Traceroute performs a TTL-stepped probe toward dst, collecting the router
// addresses that report time-exceeded, exactly as a Crossfire attacker maps
// a victim's paths. done is invoked after timeout with hop addresses in TTL
// order (zero Addr for silent hops). The last responding hop may be missing
// if dst's edge switch consumed the probe.
func (h *Host) Traceroute(dst packet.Addr, maxTTL int, timeout time.Duration, done func(hops []packet.Addr)) {
	hops := make([]packet.Addr, maxTTL)
	base := h.net.Eng.RNG().Uint32()
	cancel := h.OnICMP(func(p *packet.Packet) {
		if p.ICMP.Type != packet.ICMPTimeExceeded {
			return
		}
		idx := p.ICMP.OrigSeq - base
		if idx < uint32(maxTTL) {
			hops[idx] = p.ICMP.From
		}
	})
	for ttl := 1; ttl <= maxTTL; ttl++ {
		pkt := h.net.PoolAt(h.node).Get()
		pkt.Src, pkt.Dst, pkt.TTL, pkt.Proto = h.addr, dst, uint8(ttl), packet.ProtoUDP
		pkt.SrcPort, pkt.DstPort = 33434, 33434
		pkt.Seq = base + uint32(ttl-1)
		h.net.SendFromHost(h.node, pkt)
	}
	h.net.Eng.AfterRank(timeout, h.net.Owner(SiteTraceroute).Next(), func() {
		cancel()
		// Trim trailing silent hops (past the destination).
		end := len(hops)
		for end > 0 && hops[end-1] == 0 {
			end--
		}
		done(hops[:end])
	})
}
