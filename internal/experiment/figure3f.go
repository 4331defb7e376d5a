package experiment

import (
	"fmt"
	"math"
	"time"

	"fastflex/internal/netsim"
	"fastflex/internal/topo"
)

// Figure 3f: the Figure-3 rolling-LFA comparison on a planet-scale
// topology, with the host population carried by the hybrid fluid/packet
// substrate. Foreground traffic — user AIMD flows, the Crossfire botnet,
// FastFlex mode-change signaling — stays packet-level; the background
// population (10^5-10^6 modeled hosts) rides fluid flows that cost O(rate
// changes) events instead of O(packets). A pure packet-level run of the
// same population is infeasible on one core: the experiment measures its
// own events-per-packet cost and reports the extrapolated multiplier.

// Figure3fConfig parameterizes the planet-scale hybrid experiment.
type Figure3fConfig struct {
	// Regions and BaseRing shape topo.NewPlanetScale (defaults 6 and 4:
	// ring sizes cycle 4, 8, 16 for a 4:1 skew).
	Regions, BaseRing int
	// HostsPerFlow is the modeled-host weight behind each fluid flow
	// (default 20000; with 6x4 regions that is 50 flows = 10^6 modeled
	// hosts). The fluid substrate's cost is O(rate changes), independent
	// of this weight — which is the entire point of the experiment.
	HostsPerFlow int
	// BgPerHostBps is the per-modeled-host background rate (default
	// 1 kbps: a mostly-idle residential population). A flow's rate is
	// HostsPerFlow x BgPerHostBps.
	BgPerHostBps float64
	// Duration (default 60 s) and AttackStart (default 20 s).
	Duration, AttackStart time.Duration
	// Users / Servers / Bots are the packet-level foreground populations
	// (defaults 12 / 4 / 24).
	Users, Servers, Bots int
	Seed                 int64
	// Shards is the engine's worker count (0 and 1 both mean one);
	// results are K-invariant.
	Shards int
	// Fabrics, when non-nil, supplies warm fabrics exactly as
	// Figure3Config.Fabrics does: each arm checks out a built fabric under
	// its key, resets it to the run's seed, and checks it back in when the
	// arm finishes. Fluid flows are run state (torn down by the reset), so
	// the hybrid substrate reuses fabrics as freely as the packet-only one.
	Fabrics FabricSource
}

func (c *Figure3fConfig) fillDefaults() {
	if c.Regions == 0 {
		c.Regions = 6
	}
	if c.BaseRing == 0 {
		c.BaseRing = 4
	}
	if c.HostsPerFlow == 0 {
		c.HostsPerFlow = 20000
	}
	if c.BgPerHostBps == 0 {
		c.BgPerHostBps = 1e3
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.AttackStart == 0 {
		c.AttackStart = 20 * time.Second
	}
	if c.Users == 0 {
		c.Users = 12
	}
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Bots == 0 {
		c.Bots = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// fluidLedger is the fluid substrate's byte ledger over one whole arm,
// plus the population it modeled.
type fluidLedger struct {
	injected, delivered, dropped, queued float64
	modeledHosts                         uint64
}

// figure3 maps the planet-scale config onto the one rolling-LFA arm
// (Figure3): the arm's traffic constants are Figure3Config's defaults, and
// the substrate hook supplies what differs — the planet topology, fluid
// links, and the background population. Each arm's ledger lands in *led.
func (c Figure3fConfig) figure3(led *fluidLedger) Figure3Config {
	return Figure3Config{
		Duration: c.Duration, AttackStart: c.AttackStart,
		Users: c.Users, Servers: c.Servers, Bots: c.Bots,
		Seed: c.Seed, Shards: c.Shards, Fabrics: c.Fabrics,
		substrate: &substrate{
			key:      fmt.Sprintf("planet/%dx%d", c.Regions, c.BaseRing),
			topology: func() *topo.MultiRegion { return topo.NewPlanetScale(c.Regions, c.BaseRing) },
			// Background population: one fluid flow per ingress switch,
			// crossing half its region ring (regional churn), plus one flow
			// per region from its first ingress to a victim server
			// (inter-region baseline load that transits the backbone and the
			// victim cores). Flow creation order is the deterministic
			// region/ring order. Fluid flows are run state (torn down by a
			// reset), so none of this is in the fabric key.
			background: func(n *netsim.Network, bt *Fig3Topology) {
				rate := float64(c.HostsPerFlow) * c.BgPerHostBps
				for ri, ring := range bt.Regions {
					for i := 2; i < len(ring); i++ {
						dst := ring[(i+len(ring)/2)%len(ring)]
						n.NewFluidFlow(ring[i], dst, rate, c.HostsPerFlow).Start()
					}
					n.NewFluidFlow(ring[2], bt.Servers[ri%len(bt.Servers)], rate, c.HostsPerFlow).Start()
				}
			},
			ledger: func(n *netsim.Network) {
				*led = fluidLedger{
					injected:     n.FluidInjectedBytes(),
					delivered:    n.FluidDeliveredBytes(),
					dropped:      n.FluidDroppedBytes(),
					queued:       n.FluidQueuedBytes(),
					modeledHosts: uint64(n.ModeledHosts()),
				}
			},
		},
	}
}

// Figure3f runs the undefended and FastFlex arms of the planet-scale
// hybrid experiment and assembles the comparison table.
func Figure3f(cfg Figure3fConfig) *Result {
	cfg.fillDefaults()
	res := &Result{Name: "Figure 3f: planet-scale hybrid fluid/packet rolling LFA"}
	var ff fluidLedger // the FastFlex arm runs last and carries the headline ledger
	compareArms(res, cfg.figure3(&ff), []Defense{DefenseNone, DefenseFastFlex},
		"attack_mean_", "stable_mbps_")

	res.ModeledHosts = ff.modeledHosts
	res.Metric("modeled_hosts", float64(ff.modeledHosts))
	res.Metric("events_per_modeled_host", float64(res.Events)/float64(2*ff.modeledHosts))
	res.Metric("bg_injected_gbytes", ff.injected/1e9)
	res.Metric("bg_delivered_frac", ff.delivered/ff.injected)
	res.Metric("bg_dropped_frac", ff.dropped/ff.injected)
	consErr := math.Abs(ff.injected-(ff.delivered+ff.dropped+ff.queued)) / ff.injected
	res.Metric("bg_conservation_err", consErr)

	// The infeasibility multiplier: what the background would have cost as
	// packets. Bytes the fluid substrate moved, as 1000-byte frames, times
	// this run's own measured events-per-pipeline-pass (foreground cost),
	// times the mean fluid path length in switch hops — versus the events
	// the whole hybrid run actually fired.
	evPerPass := float64(res.Events) / float64(res.Packets)
	equivPasses := ff.injected / 1000 * fig3fMeanHops(cfg)
	equivEvents := equivPasses * evPerPass
	res.Metric("packet_equiv_event_ratio", equivEvents/float64(res.Events))

	nFlows := cfg.Regions // one victim flow per region
	for r := 0; r < cfg.Regions; r++ {
		nFlows += (cfg.BaseRing << uint(r%3)) - 2
	}
	res.Note("modeled hosts %d (%d fluid flows + foreground), background moved %.2f GB: %.0f%% delivered, %.0f%% dropped, conservation err %.1e",
		ff.modeledHosts, nFlows, ff.injected/1e9,
		100*ff.delivered/ff.injected, 100*ff.dropped/ff.injected, consErr)
	res.Note("pure packet-level equivalent: ~%.0fx the events this hybrid run fired (%.2g extrapolated vs %d actual)",
		equivEvents/float64(res.Events), equivEvents, res.Events)
	return res
}

// fig3fMeanHops estimates the mean switch-hop count of the background flow
// set from the builder's shape: intra-region flows cross half their ring,
// victim flows cross one backbone hop plus the victim core/edge (3 switch
// hops) — weighted by flow counts.
func fig3fMeanHops(cfg Figure3fConfig) float64 {
	var flows, hopSum float64
	for r := 0; r < cfg.Regions; r++ {
		size := cfg.BaseRing << uint(r%3)
		ing := float64(size - 2)
		flows += ing
		hopSum += float64(ing * float64(size/2))
		flows++
		hopSum += 4 // ingress -> gateway -> core -> edge -> server side
	}
	if flows == 0 {
		return 1
	}
	return hopSum / flows
}
