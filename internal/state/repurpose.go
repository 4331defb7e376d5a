package state

import (
	"fmt"
	"time"

	"fastflex/internal/control"
	"fastflex/internal/dataplane"
	"fastflex/internal/netsim"
	"fastflex/internal/topo"
)

// RepurposeConfig tunes the dynamic-scaling orchestration.
type RepurposeConfig struct {
	// Latency is the reconfiguration blackout (installing a new switch
	// program). The paper measured several seconds on Tofino-class
	// hardware; default 2s. Ablation A4 sweeps it.
	Latency time.Duration
	// FastReroute: notify neighbors before the blackout so they steer
	// around the switch (default on; ablation A4 turns it off).
	FastReroute bool
	// TransferState ships Stateful program snapshots to StatePeer before
	// the blackout and restores them afterward.
	TransferState bool
	// StatePeer receives the state during the blackout.
	StatePeer topo.NodeID
	// FEC protects the transfer.
	FEC FECConfig
}

// Repurposer orchestrates §3.4 switch repurposing: transfer state out,
// notify neighbors (fast reroute around the switch), take the switch down
// for the reconfiguration latency, apply the program change, restore
// routes, and migrate state back.
type Repurposer struct {
	net *netsim.Network

	// Repurposed counts completed operations.
	Repurposed uint64
}

// NewRepurposer builds an orchestrator for the network.
func NewRepurposer(n *netsim.Network) *Repurposer {
	return &Repurposer{net: n}
}

// Repurpose executes the full sequence on the target switch. change is
// applied to the switch during the blackout (install/uninstall programs);
// done (optional) fires after the switch is back and state is restored.
func (r *Repurposer) Repurpose(target topo.NodeID, cfg RepurposeConfig,
	change func(*dataplane.Switch) error, done func(err error)) error {
	if cfg.Latency == 0 {
		cfg.Latency = 2 * time.Second
	}
	sw := r.net.Switch(target)
	if sw == nil {
		return fmt.Errorf("state: node %d is not a switch", target)
	}
	if sw.Reconfiguring {
		return fmt.Errorf("state: switch %d is already reconfiguring", target)
	}

	// 1. Ship state out while the switch is still up.
	var shippedState map[string][]byte
	if cfg.TransferState {
		snaps := sw.SnapshotAll()
		if len(snaps) > 0 {
			shippedState = snaps // kept locally as the authoritative copy
			if _, err := Send(r.net, target, cfg.StatePeer, 0x42, SnapshotBundle(snaps), cfg.FEC); err != nil {
				return fmt.Errorf("state: shipping state: %w", err)
			}
		}
	}

	// 2. Neighbor notification: reroute around the switch before it goes
	// dark. Modeled as installing detour routes that price links into the
	// target prohibitively (pre-provisioned backup paths à la [38, 46]).
	if cfg.FastReroute {
		avoid := control.ComputeRoutes(r.net.G, func(l topo.Link) float64 {
			base := control.BaseCost(l)
			if l.To == target || l.From == target {
				return base + 1e6
			}
			return base
		})
		control.Install(r.net, avoid)
	}

	// 3. Blackout: the switch drops everything it receives.
	sw.Reconfiguring = true
	r.net.Eng.AfterRank(cfg.Latency, r.net.Owner(netsim.SiteRepurpose).Next(), func() {
		err := change(sw)
		sw.Reconfiguring = false
		// 4. Restore normal routing.
		if cfg.FastReroute {
			control.Install(r.net, control.ComputeRoutes(r.net.G, control.BaseCost))
		}
		// 5. Migrate state back into whichever programs still exist.
		if err == nil && shippedState != nil {
			err = sw.RestoreAll(shippedState)
		}
		r.Repurposed++
		if done != nil {
			done(err)
		}
	})
	return nil
}
