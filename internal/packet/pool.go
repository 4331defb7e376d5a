package packet

// Pool is a free list of Packets for the simulator hot path. A simulation
// takes every packet it originates — data, ACKs, probes, flood copies — from
// a pool and returns it at end-of-life (delivered to a host, consumed by a
// switch, or dropped), so steady-state forwarding and defending perform no
// allocations (pinned by netsim's TestForwardSteadyStateZeroAlloc and
// TestDefendedSteadyStateZeroAlloc).
//
// The pool is deliberately not a sync.Pool: simulations are single-threaded
// below the experiment.Runner boundary, and a plain LIFO free list keeps
// reuse order — and therefore memory behavior — deterministic for a given
// seed. Each Network partition owns its own Pool, so concurrent runs never
// share one; a packet may be born in one partition's pool and recycled into
// another's.
//
// Ownership contract (DESIGN.md "Packet ownership"):
//
//   - Pool-born or never pooled. Get marks the packets it hands out, for
//     life; Put recycles only those and ignores every other packet. Packets
//     built with a literal or by Packet.Clone belong to the garbage
//     collector however often they are Put, so the pooled population is
//     bounded by News and cannot be grown from outside.
//   - Whoever holds a packet owns it, and passes ownership on by emitting,
//     enqueueing or Putting it; nothing may touch a packet after that.
//   - A pooled packet's Probe layer is the packet's own buffer (GetProbe,
//     Clone), attached on first use and reused every time the packet comes
//     round again — there is no second free list to level or to leak. So a
//     *ProbeInfo, and its State bytes, are only valid until the packet is
//     Put: code that keeps either past its pipeline pass (the state-transfer
//     reassembler) copies what it keeps. An ICMP layer is never reused; Put
//     just lets go of it, and handlers may keep it.
//
// A nil *Pool is the heap: Get, GetProbe and Clone on it return fresh
// packets that are never recycled and Put is a no-op, so a
// dataplane.Context built without a pool (unit tests, offline tools) works
// unchanged.
type Pool struct {
	free []*Packet

	// Gets counts packets served (clones included); News counts the subset
	// that had to allocate fresh Packets (steady state: News stops growing).
	Gets, News uint64
}

// Get returns a zeroed Packet, reusing a recycled one when possible.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.Gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	p.News++
	return &Packet{pooled: true}
}

// GetProbe returns a zeroed packet of protocol ProtoProbe whose Probe layer
// is attached and zeroed, ready to be filled in.
//
//ffvet:hotpath
func (p *Pool) GetProbe() *Packet {
	pkt := p.Get()
	pkt.Proto = ProtoProbe
	pi := pkt.attachProbe()
	*pi = ProbeInfo{State: pi.State[:0]}
	return pkt
}

// Clone returns a deep copy of src, Flow memo included, for fan-out (probe
// flooding), so per-hop edits of one copy never show in another.
//
//ffvet:hotpath
func (p *Pool) Clone(src *Packet) *Packet {
	pkt := p.Get()
	pkt.copyFrom(src)
	return pkt
}

// Put recycles a packet the caller owns and will never touch again. Packets
// not born from a pool are ignored (see the type comment).
func (p *Pool) Put(pkt *Packet) {
	if p == nil || pkt == nil || !pkt.pooled {
		return
	}
	*pkt = Packet{pooled: true, probeBuf: pkt.probeBuf}
	p.free = append(p.free, pkt)
}

// Free returns how many recycled packets the pool holds.
func (p *Pool) Free() int { return len(p.free) }

// MoveTo hands n recycled packets (at most Free) to dst. Gets and News are
// untouched on both sides: nothing was allocated or served, the packets
// only changed free lists.
func (p *Pool) MoveTo(dst *Pool, n int) {
	n = min(n, len(p.free))
	keep := len(p.free) - n
	dst.free = append(dst.free, p.free[keep:]...)
	clear(p.free[keep:])
	p.free = p.free[:keep]
}
