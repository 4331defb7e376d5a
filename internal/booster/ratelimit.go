package booster

import (
	"fmt"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// GRLConfig parameterizes the distributed global rate limiter.
type GRLConfig struct {
	// Victim is the destination whose aggregate ingress rate is limited.
	Victim packet.Addr
	// LimitBps is the network-wide aggregate ceiling.
	LimitBps float64
	// Window is the local measurement epoch (default 500ms).
	Window time.Duration
	// MetricID identifies this limiter's counter in the detector-sync
	// protocol (default 0x10).
	MetricID uint8
	// Global returns the network-wide byte count for the metric as
	// aggregated by the mode controller's sync protocol, and the number
	// of fresh peers. When nil the limiter enforces its local share only.
	Global func(now time.Duration) (total uint64, peers int)
}

func (c *GRLConfig) fillDefaults() {
	if c.Window == 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.MetricID == 0 {
		c.MetricID = 0x10
	}
}

// GlobalRateLimit is the distributed-detection use case of §3.3 (global
// rate limits à la Raghavan et al. [62]): several ingress switches jointly
// enforce one aggregate rate toward a destination. Each instance counts
// locally; the mode controllers' sync probes exchange the counters; every
// instance throttles proportionally once the *global* estimate exceeds the
// limit. No controller is involved.
type GlobalRateLimit struct {
	cfg  GRLConfig
	self topo.NodeID

	windowStart time.Duration
	windowBytes uint64
	lastWindow  uint64 // exported to the sync protocol via LocalCount

	throttling bool
	dropFrac   float64 // fraction of packets to shed while throttling
	debt       float64 // accumulated shedding debt (deterministic)

	Dropped   uint64
	Throttled uint64 // windows spent throttling
}

// NewGlobalRateLimit builds one limiter instance.
func NewGlobalRateLimit(self topo.NodeID, cfg GRLConfig) *GlobalRateLimit {
	cfg.fillDefaults()
	return &GlobalRateLimit{cfg: cfg, self: self}
}

// Name implements PPM.
func (g *GlobalRateLimit) Name() string { return fmt.Sprintf("grl@%d", g.self) }

// Resources implements PPM.
func (g *GlobalRateLimit) Resources() dataplane.Resources {
	return dataplane.Resources{Stages: 1, SRAMKB: 4, TCAM: 2, ALUs: 2}
}

// LocalCount returns the bytes counted toward the victim in the last
// completed window — the value the mode controller broadcasts (register it
// with Controller.RegisterMetric using cfg.MetricID).
func (g *GlobalRateLimit) LocalCount() uint32 {
	if g.lastWindow > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(g.lastWindow)
}

// MetricID returns the sync-protocol metric this limiter publishes.
func (g *GlobalRateLimit) MetricID() uint8 { return g.cfg.MetricID }

// Throttling reports whether the limiter is currently shedding load.
func (g *GlobalRateLimit) Throttling() bool { return g.throttling }

// Process implements PPM.
func (g *GlobalRateLimit) Process(ctx *dataplane.Context) dataplane.Verdict {
	p := ctx.Pkt
	if (p.Proto != packet.ProtoTCP && p.Proto != packet.ProtoUDP) || p.Dst != g.cfg.Victim {
		return dataplane.Continue
	}
	if g.windowStart == 0 {
		g.windowStart = ctx.Now
	}
	if ctx.Now-g.windowStart >= g.cfg.Window {
		g.rollWindow(ctx.Now)
	}
	g.windowBytes += uint64(p.Len())
	if g.throttling {
		// Deterministic proportional shedding: accumulate dropFrac of
		// "debt" per packet and drop whenever a whole packet is owed.
		g.debt += g.dropFrac
		if g.debt >= 1 {
			g.debt -= 1
			g.Dropped++
			return dataplane.Drop
		}
	}
	return dataplane.Continue
}

// rollWindow closes the local window and re-evaluates the global estimate.
func (g *GlobalRateLimit) rollWindow(now time.Duration) {
	g.lastWindow = g.windowBytes
	g.windowBytes = 0
	g.windowStart = now

	globalBytes := g.lastWindow
	if g.cfg.Global != nil {
		if total, _ := g.cfg.Global(now); total > globalBytes {
			globalBytes = total
		}
	}
	limitBytes := float64(g.cfg.LimitBps / 8 * g.cfg.Window.Seconds())
	if float64(globalBytes) <= limitBytes || globalBytes == 0 {
		g.throttling = false
		return
	}
	// Shed the overage proportionally: every instance drops the same
	// fraction, bringing the aggregate back to the limit.
	excess := float64(globalBytes) - limitBytes
	frac := excess / float64(globalBytes)
	if frac > 0.99 {
		frac = 0.99
	}
	g.dropFrac = frac
	g.throttling = true
	g.Throttled++
}
