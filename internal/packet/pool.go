package packet

// Pool is a free list of Packets for the simulator hot path. A simulation
// allocates every data packet from its Network's pool and returns it at
// end-of-life (delivered to a host, or dropped), so steady-state forwarding
// performs no allocations (pinned by netsim's TestForwardSteadyStateZeroAlloc).
//
// The pool is deliberately not a sync.Pool: simulations are single-threaded
// below the experiment.Runner boundary, and a plain LIFO free list keeps
// reuse order — and therefore memory behavior — deterministic for a given
// seed. Each Network owns its own Pool, so concurrent runs never share one.
//
// Packets carrying an ICMP or Probe layer are never recycled: PPMs may
// legitimately retain those layer structs past the packet's lifetime (the
// state-transfer reassembler keeps ProbeInfo chunks, ICMP handlers may
// stash responses), so Put lets the garbage collector have them.
type Pool struct {
	free []*Packet

	// Gets counts allocations served; News counts the subset that had to
	// allocate fresh Packets (steady state: News stops growing).
	Gets, News uint64
}

// Get returns a zeroed Packet, reusing a recycled one when possible.
func (p *Pool) Get() *Packet {
	p.Gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	p.News++
	return &Packet{}
}

// Put recycles a packet the caller owns and will never touch again.
// Packets with ICMP or Probe layers are ignored (see the type comment).
func (p *Pool) Put(pkt *Packet) {
	if pkt == nil || pkt.ICMP != nil || pkt.Probe != nil {
		return
	}
	*pkt = Packet{}
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
