package attack

import (
	"time"

	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Volumetric is a plain high-rate DDoS: bots blast UDP at a victim host.
// The heavy-hitter booster is the matching defense.
type Volumetric struct {
	net     *netsim.Network
	sources []*netsim.CBRSource
}

// NewVolumetric builds a volumetric attack from bots to victim at
// perBotBps each.
func NewVolumetric(n *netsim.Network, bots []topo.NodeID, victim packet.Addr, perBotBps float64) *Volumetric {
	v := &Volumetric{net: n}
	sport := uint16(40000)
	for _, b := range bots {
		sport++
		v.sources = append(v.sources,
			netsim.NewCBRSource(n, b, victim, sport, 53, packet.ProtoUDP, 1400, perBotBps))
	}
	return v
}

// Start begins the flood.
func (v *Volumetric) Start() {
	for _, s := range v.sources {
		s.Start()
	}
}

// Stop halts the flood.
func (v *Volumetric) Stop() {
	for _, s := range v.sources {
		s.Stop()
	}
}

// OnOff is anything that can be toggled — attacks, sources.
type OnOff interface {
	Start()
	Stop()
}

// Pulsing alternates an attack on and off, attempting to trigger a mode
// change on every pulse — the adversarial stability workload of §6 and
// ablation A7.
type Pulsing struct {
	net     *netsim.Network
	under   OnOff
	onFor   time.Duration
	offFor  time.Duration
	on      bool
	stopped bool

	Pulses uint64
}

// NewPulsing wraps any attack with an on/off duty cycle.
func NewPulsing(n *netsim.Network, under OnOff, onFor, offFor time.Duration) *Pulsing {
	return &Pulsing{net: n, under: under, onFor: onFor, offFor: offFor}
}

// Start begins pulsing (first pulse immediately).
func (p *Pulsing) Start() {
	p.stopped = false
	p.on = true
	p.Pulses++
	p.under.Start()
	p.schedule()
}

func (p *Pulsing) schedule() {
	d := p.onFor
	if !p.on {
		d = p.offFor
	}
	p.net.Eng.AfterRank(d, p.net.Owner(netsim.SitePulse).Next(), func() {
		if p.stopped {
			return
		}
		if p.on {
			p.under.Stop()
			p.on = false
		} else {
			p.under.Start()
			p.on = true
			p.Pulses++
		}
		p.schedule()
	})
}

// Stop ends pulsing.
func (p *Pulsing) Stop() {
	p.stopped = true
	p.under.Stop()
	p.on = false
}
