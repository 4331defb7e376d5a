package netsim

import (
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// CBRSource sends constant-bit-rate traffic from a host. Bots in the
// Crossfire attack are CBR sources with TCP framing at low rates (the
// "legitimate-looking low-rate flows" of §4); background UDP load uses it
// too.
type CBRSource struct {
	net     *Network
	host    topo.NodeID
	dst     packet.Addr
	sport   uint16
	dport   uint16
	proto   packet.Proto
	payload uint16
	rateBps float64

	// sh is the host's shard: the send timer lives on its engine, and
	// rank mints the timer's merge ranks.
	sh   *shardState
	rank eventsim.RankOwner

	running bool
	sentSYN bool
	seq     uint32
	sent    uint64
	pending *eventsim.Event
	// arming is the timer callback, allocated once so the per-packet
	// reschedule closes over nothing.
	arming func()
}

// NewCBRSource creates a stopped CBR source; call Start to begin sending.
// proto must be ProtoTCP or ProtoUDP. TCP sources open with a SYN.
func NewCBRSource(n *Network, host topo.NodeID, dst packet.Addr, sport, dport uint16,
	proto packet.Proto, payload uint16, rateBps float64) *CBRSource {
	if n.Host(host) == nil {
		panic("netsim: CBR source host is not a host node")
	}
	s := &CBRSource{
		net: n, host: host, dst: dst, sport: sport, dport: dport,
		proto: proto, payload: payload, rateBps: rateBps,
		sh: n.shardAt(host), rank: n.newRankOwner(),
	}
	s.arming = func() {
		if !s.running {
			return
		}
		s.emit()
		s.scheduleNext(false)
	}
	return s
}

// Start begins (or resumes) transmission.
func (s *CBRSource) Start() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleNext(true)
}

// Stop pauses transmission.
func (s *CBRSource) Stop() {
	s.running = false
	if s.pending != nil {
		s.sh.eng.Drop(s.pending)
		s.pending = nil
	}
}

// Running reports whether the source is transmitting.
func (s *CBRSource) Running() bool { return s.running }

// SetRate changes the sending rate (takes effect from the next packet).
func (s *CBRSource) SetRate(bps float64) { s.rateBps = bps }

// Sent returns the number of packets sent.
func (s *CBRSource) Sent() uint64 { return s.sent }

func (s *CBRSource) interval() time.Duration {
	bits := float64((int(s.payload) + 25) * 8) // payload + approx header
	iv := time.Duration(bits / s.rateBps * float64(time.Second))
	if iv <= 0 {
		iv = time.Nanosecond
	}
	return iv
}

func (s *CBRSource) scheduleNext(first bool) {
	iv := s.interval()
	if first {
		// Desynchronize sources with a random phase. Start runs in
		// coordinator context (setup code, attack launch), so the
		// coordinator RNG keeps the draw partition-invariant.
		iv = time.Duration(s.net.Eng.RNG().Int63n(int64(iv) + 1))
	}
	s.pending = s.sh.after(iv, &s.rank, s.arming)
}

func (s *CBRSource) emit() {
	p := s.sh.pool.Get()
	p.Src, p.Dst, p.TTL = packet.HostAddr(int(s.host)), s.dst, 64
	p.Proto, p.SrcPort, p.DstPort = s.proto, s.sport, s.dport
	p.PayloadLen, p.Seq = s.payload, s.seq
	if s.proto == packet.ProtoTCP {
		if !s.sentSYN {
			p.Flags = packet.FlagSYN
			s.sentSYN = true
		} else {
			p.Flags = packet.FlagACK
		}
	}
	s.seq++
	s.sent++
	s.net.SendFromHost(s.host, p)
}

// AIMDSource is a window-based TCP-like sender: slow start, additive
// increase / multiplicative decrease on timeout, per-packet RTO timers, and
// ACK clocking via the receiving host's auto-ACK. The paper's "normal user
// flows" are AIMD sources, so congestion on the victim links shows up as
// loss-induced backoff in Figure 3's normalized throughput.
type AIMDSource struct {
	net     *Network
	host    topo.NodeID
	dst     packet.Addr
	sport   uint16
	dport   uint16
	payload uint16

	// sh is the host's shard: RTO timers live on its engine, and rank
	// mints their merge ranks.
	sh   *shardState
	rank eventsim.RankOwner

	cwnd     float64
	ssthresh float64
	nextSeq  uint32
	inflight map[uint32]*rtoTimer
	// rtoFree recycles rtoTimers, so steady-state transmission allocates
	// neither a closure nor a map entry per packet (the timer carries the
	// send timestamp that a separate sendTimes map used to hold).
	rtoFree []*rtoTimer
	// Acked-segment tracking is a cumulative floor plus a sparse set above
	// it: every seq < ackedFloor is acknowledged, and acked holds only the
	// out-of-order segments at or above the floor. Entries are folded into
	// the floor as it advances, so the map stays bounded by the reordering
	// window instead of growing by one entry per segment for the lifetime
	// of the flow.
	ackedFloor uint32
	acked      map[uint32]bool

	// maxRateBps, when > 0, caps the window like an application-limited
	// sender (a video stream or web session): the flow never offers more
	// than this rate, but still collapses TCP-style under loss.
	maxRateBps float64

	srtt    time.Duration
	running bool

	ackedBytes  uint64
	retransmits uint64
	timeouts    uint64
	sentPackets uint64
}

// NewAIMDSource creates a stopped AIMD sender toward a host address.
func NewAIMDSource(n *Network, host topo.NodeID, dst packet.Addr, sport, dport uint16, payload uint16) *AIMDSource {
	if n.Host(host) == nil {
		panic("netsim: AIMD source host is not a host node")
	}
	s := &AIMDSource{
		net: n, host: host, dst: dst, sport: sport, dport: dport, payload: payload,
		sh: n.shardAt(host), rank: n.newRankOwner(),
		cwnd: 2, ssthresh: 64,
		inflight: make(map[uint32]*rtoTimer),
		acked:    make(map[uint32]bool),
	}
	n.Host(host).ackHandlers[sport] = s.onAck
	return s
}

// Start begins transmission.
func (s *AIMDSource) Start() {
	if s.running {
		return
	}
	s.running = true
	s.pump()
}

// Stop halts transmission and cancels outstanding timers.
func (s *AIMDSource) Stop() {
	s.running = false
	//ffvet:ok cancelling every pending timer is order-independent
	for seq, t := range s.inflight {
		s.sh.eng.Drop(t.ev)
		delete(s.inflight, seq)
		s.rtoFree = append(s.rtoFree, t)
	}
}

// AckedBytes returns goodput: payload bytes acknowledged exactly once.
func (s *AIMDSource) AckedBytes() uint64 { return s.ackedBytes }

// Retransmits returns the number of timeout-triggered retransmissions.
func (s *AIMDSource) Retransmits() uint64 { return s.retransmits }

// Cwnd returns the current congestion window in packets.
func (s *AIMDSource) Cwnd() float64 { return s.cwnd }

// Sent returns the number of packets transmitted (including retransmits).
func (s *AIMDSource) Sent() uint64 { return s.sentPackets }

// SetMaxRate caps the sender at an application-limited rate (0 = greedy).
func (s *AIMDSource) SetMaxRate(bps float64) { s.maxRateBps = bps }

func (s *AIMDSource) rto() time.Duration {
	if s.srtt == 0 {
		return 100 * time.Millisecond // conservative initial RTO
	}
	rto := 2*s.srtt + 10*time.Millisecond
	if rto < 20*time.Millisecond {
		rto = 20 * time.Millisecond
	}
	return rto
}

// pump sends while the window allows.
func (s *AIMDSource) pump() {
	window := s.cwnd
	if s.maxRateBps > 0 {
		// Application-limited window: rate × RTT worth of packets.
		rtt := s.srtt
		if rtt == 0 {
			rtt = 20 * time.Millisecond
		}
		cap := s.maxRateBps * rtt.Seconds() / (8 * float64(s.payload))
		if cap < 1 {
			cap = 1
		}
		if cap < window {
			window = cap
		}
	}
	for s.running && len(s.inflight) < int(window) {
		seq := s.nextSeq
		s.nextSeq++
		s.transmit(seq)
	}
}

func (s *AIMDSource) transmit(seq uint32) {
	flags := packet.TCPFlags(packet.FlagACK)
	if seq == 0 {
		flags |= packet.FlagSYN
	}
	p := s.sh.pool.Get()
	p.Src, p.Dst, p.TTL = packet.HostAddr(int(s.host)), s.dst, 64
	p.Proto, p.SrcPort, p.DstPort = packet.ProtoTCP, s.sport, s.dport
	p.Flags, p.Seq, p.PayloadLen = flags, seq, s.payload
	s.sentPackets++
	t, ok := s.inflight[seq]
	if ok {
		s.sh.eng.Drop(t.ev)
	} else {
		t = s.getTimer()
		t.seq = seq
		s.inflight[seq] = t
	}
	t.ev = s.sh.after(s.rto(), &s.rank, t.fire)
	t.sendTime = s.sh.eng.Now()
	s.net.SendFromHost(s.host, p)
}

// rtoTimer is a pooled per-segment retransmission timer. fire is allocated
// once per pool entry, so arming a timer schedules no closure; sendTime
// doubles as the RTT-sample timestamp for the segment.
type rtoTimer struct {
	src      *AIMDSource
	seq      uint32
	ev       *eventsim.Event
	sendTime time.Duration
	fire     func()
}

func (s *AIMDSource) getTimer() *rtoTimer {
	if ln := len(s.rtoFree); ln > 0 {
		t := s.rtoFree[ln-1]
		s.rtoFree[ln-1] = nil
		s.rtoFree = s.rtoFree[:ln-1]
		return t
	}
	t := &rtoTimer{src: s}
	t.fire = func() { t.src.onTimeout(t) }
	return t
}

func (s *AIMDSource) onAck(p *packet.Packet) {
	seq := p.Seq
	if t, ok := s.inflight[seq]; ok {
		s.sh.eng.Drop(t.ev)
		delete(s.inflight, seq)
		sample := s.sh.eng.Now() - t.sendTime
		if s.srtt == 0 {
			s.srtt = sample
		} else {
			s.srtt = (7*s.srtt + sample) / 8
		}
		s.rtoFree = append(s.rtoFree, t)
	}
	if !s.isAcked(seq) {
		s.markAcked(seq)
		s.ackedBytes += uint64(s.payload)
		// Window growth only on first ACK of a segment.
		if s.cwnd < s.ssthresh {
			s.cwnd++
		} else {
			s.cwnd += 1 / s.cwnd
		}
	}
	s.pump()
}

func (s *AIMDSource) onTimeout(t *rtoTimer) {
	if !s.running {
		return
	}
	seq := t.seq
	delete(s.inflight, seq)
	s.rtoFree = append(s.rtoFree, t)
	s.timeouts++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 2
	if !s.isAcked(seq) {
		s.retransmits++
		s.transmit(seq)
	}
	s.pump()
}

// isAcked reports whether seq has been acknowledged at least once.
func (s *AIMDSource) isAcked(seq uint32) bool {
	return seq < s.ackedFloor || s.acked[seq]
}

// markAcked records seq as acknowledged and advances the cumulative floor
// over any now-contiguous out-of-order entries, pruning them from the map.
func (s *AIMDSource) markAcked(seq uint32) {
	s.acked[seq] = true
	for s.acked[s.ackedFloor] {
		delete(s.acked, s.ackedFloor)
		s.ackedFloor++
	}
}

// ackedMapSizes reports the sparse tracking-map sizes (tests assert these
// stay bounded in steady state).
func (s *AIMDSource) ackedMapSizes() (acked, inflight int) {
	return len(s.acked), len(s.inflight)
}
