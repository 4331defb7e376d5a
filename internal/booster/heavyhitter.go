package booster

import (
	"fmt"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// HHConfig parameterizes the heavy-hitter (volumetric DDoS) detector.
type HHConfig struct {
	// Epoch is the counting window (default 500ms).
	Epoch time.Duration
	// ThresholdPkts: a flow exceeding this many packets per epoch is a
	// heavy hitter (default 2000 ≈ 32 Mbps at 1 KB packets / 500 ms).
	ThresholdPkts uint64
	// Stages and Width size the HashPipe (defaults 4 × 256).
	Stages, Width int
	// BanEpochs: how many quiet epochs before a flagged flow is unbanned
	// (default 4).
	BanEpochs int
	// ReassertEvery: while the attack persists, the alarm is re-raised at
	// this period so mode leases stay refreshed network-wide (default
	// 500ms).
	ReassertEvery time.Duration
}

func (c *HHConfig) fillDefaults() {
	if c.Epoch == 0 {
		c.Epoch = 500 * time.Millisecond
	}
	if c.ThresholdPkts == 0 {
		c.ThresholdPkts = 2000
	}
	if c.Stages == 0 {
		c.Stages = 4
	}
	if c.Width == 0 {
		c.Width = 256
	}
	if c.BanEpochs == 0 {
		c.BanEpochs = 4
	}
	if c.ReassertEvery == 0 {
		c.ReassertEvery = 500 * time.Millisecond
	}
}

// HeavyHitter is the HashPipe-based volumetric DDoS detector [69, 70]. It
// counts per-flow packets per epoch; flows over threshold are tagged
// SuspicionHigh (so the Dropper kills them) and the volumetric alarm is
// raised to activate ModeDDoS.
type HeavyHitter struct {
	cfg  HHConfig
	self topo.NodeID

	pipe *sketch.HashPipe
	// banned holds each flagged flow's quiet epochs left before it is
	// unbanned, in a table of Stages × Width flows.
	banned     sketch.Table[int]
	epochEnds  time.Duration
	lastAssert time.Duration

	Alarm AlarmFunc

	Alarms  uint64
	Clears  uint64
	Flagged uint64
	active  bool
}

// NewHeavyHitter builds the detector for one switch.
func NewHeavyHitter(self topo.NodeID, cfg HHConfig) *HeavyHitter {
	cfg.fillDefaults()
	return &HeavyHitter{
		cfg:    cfg,
		self:   self,
		pipe:   sketch.NewHashPipe(cfg.Stages, cfg.Width),
		banned: sketch.NewTable[int](cfg.Stages*cfg.Width, sketch.InitialEntries),
	}
}

// Name implements PPM.
func (h *HeavyHitter) Name() string { return fmt.Sprintf("heavyhitter@%d", h.self) }

// Resources implements PPM: the HashPipe stages dominate.
func (h *HeavyHitter) Resources() dataplane.Resources {
	return dataplane.Resources{
		Stages: h.cfg.Stages,
		SRAMKB: float64(h.pipe.Bytes()) / 1024,
		TCAM:   0,
		ALUs:   h.cfg.Stages,
	}
}

// Active reports whether a volumetric attack is currently flagged.
func (h *HeavyHitter) Active() bool { return h.active }

// Process implements PPM.
func (h *HeavyHitter) Process(ctx *dataplane.Context) dataplane.Verdict {
	p := ctx.Pkt
	if p.Proto != packet.ProtoTCP && p.Proto != packet.ProtoUDP {
		return dataplane.Continue
	}
	key, th := p.Flow()
	hash := key.Hash() // the sketch-row hash, not the table hash
	if h.epochEnds == 0 {
		h.epochEnds = ctx.Now + h.cfg.Epoch
	}
	if ctx.Now >= h.epochEnds {
		h.rollEpoch(ctx)
		h.epochEnds = ctx.Now + h.cfg.Epoch
	}
	slot, ban := h.banned.Find(key, th)
	heavy := h.pipe.Add(hash) > h.cfg.ThresholdPkts
	if heavy {
		switch {
		case ban != nil:
			*ban = h.cfg.BanEpochs
		case h.banned.Len() < h.banned.Cap(): // a full table records no new ban
			h.banned.Insert(slot, key, h.cfg.BanEpochs)
			h.Flagged++
		}
		if !h.active {
			h.active = true
			h.Alarms++
			if h.Alarm != nil {
				h.Alarm(ctx, Alarm{Class: AttackVolumetric, Active: true})
			}
		}
	}
	if (heavy || ban != nil) && p.Suspicion < SuspicionHigh {
		p.Suspicion = SuspicionHigh
	}
	// Keep the network-wide DDoS mode asserted while flows remain banned
	// (soft-state leases need refreshing).
	if h.active && ctx.Now-h.lastAssert >= h.cfg.ReassertEvery {
		h.lastAssert = ctx.Now
		if h.Alarm != nil {
			h.Alarm(ctx, Alarm{Class: AttackVolumetric, Active: true})
		}
	}
	return dataplane.Continue
}

// rollEpoch ages bans and resets counters; when the last ban expires the
// alarm clears.
func (h *HeavyHitter) rollEpoch(ctx *dataplane.Context) {
	h.pipe.Reset()
	h.banned.Sweep(func(epochs *int) bool {
		*epochs--
		return *epochs > 0
	})
	if h.active && h.banned.Len() == 0 {
		h.active = false
		h.Clears++
		if h.Alarm != nil {
			h.Alarm(ctx, Alarm{Class: AttackVolumetric, Active: false})
		}
	}
}
