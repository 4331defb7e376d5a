// Package control implements the centralized control plane: traffic
// engineering that computes per-destination forwarding trees over the
// topology, and the baseline SDN LFA defense of §4.3 — a controller that
// polls link utilizations and reconfigures the network every period
// (modeled after Spiffy-style reactive TE [43]). FastFlex uses the same TE
// for its default mode; the difference is that FastFlex then changes modes
// in the data plane while the baseline must wait for the next controller
// cycle — which is exactly what Figure 3 measures.
package control

import (
	"sort"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// CostFunc prices a directed link for route computation.
type CostFunc func(topo.Link) float64

// BaseCost prices links by their static routing weight only (stable-mode
// TE over a long-term traffic matrix).
func BaseCost(l topo.Link) float64 {
	if l.Weight > 0 {
		return l.Weight
	}
	return 1
}

// LoadAwareCost returns a cost function that penalizes currently loaded
// links: cost = base × (1 + alpha × utilization). This is the reactive TE
// the baseline defense recomputes each cycle.
func LoadAwareCost(n *netsim.Network, alpha float64) CostFunc {
	return func(l topo.Link) float64 {
		return BaseCost(l) * (1 + float64(alpha*n.LinkLoad(l.ID)))
	}
}

// NextHops computes, for every switch, the egress link toward dst (a host
// node) under the given cost function, via a Dijkstra run on the reversed
// graph. Following the next hops strictly decreases distance-to-dst, so the
// result is loop-free regardless of ties.
func NextHops(g *topo.Graph, dst topo.NodeID, cost CostFunc) map[topo.NodeID]topo.LinkID {
	const inf = 1e18
	dist := make([]float64, len(g.Nodes))
	hop := make([]topo.LinkID, len(g.Nodes))
	done := make([]bool, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
		hop[i] = -1
	}
	dist[dst] = 0
	for {
		best := topo.NodeID(-1)
		bd := inf
		for i, d := range dist {
			if !done[i] && d < bd {
				bd, best = d, topo.NodeID(i)
			}
		}
		if best == -1 {
			break
		}
		done[best] = true
		// Relax in-links: traffic at u heading for dst leaves over u→best.
		for _, lid := range g.In(best) {
			l := g.Links[lid]
			u := l.From
			// Hosts other than dst never forward; their distance is
			// irrelevant and must not propagate.
			if g.Nodes[best].Kind == topo.Host && best != dst {
				continue
			}
			nd := dist[best] + cost(l)
			if nd < dist[u] || (nd == dist[u] && hop[u] >= 0 && lid < hop[u]) {
				dist[u] = nd
				hop[u] = lid
			}
		}
	}
	out := make(map[topo.NodeID]topo.LinkID)
	for _, sw := range g.Switches() {
		if hop[sw] >= 0 {
			out[sw] = hop[sw]
		}
	}
	return out
}

// Routes is a complete forwarding configuration: per-switch, per-host-dst
// egress links.
type Routes map[topo.NodeID]map[packet.Addr]topo.LinkID

// ComputeRoutes builds forwarding state for every host destination.
func ComputeRoutes(g *topo.Graph, cost CostFunc) Routes {
	routes := make(Routes)
	for _, sw := range g.Switches() {
		routes[sw] = make(map[packet.Addr]topo.LinkID)
	}
	for _, h := range g.Hosts() {
		hops := NextHops(g, h, cost)
		addr := packet.HostAddr(int(h))
		//ffvet:ok filling distinct per-switch keys is order-independent
		for sw, l := range hops {
			routes[sw][addr] = l
		}
	}
	return routes
}

// ComputeBalancedRoutes builds per-destination trees spread across the
// destination edge's incoming links under the demand estimate perDstBps
// (≤0 uses the 20 Mbps default). This approximates the "optimal
// configuration computed by centralized control over a stable traffic
// matrix" of §1 — e.g. the Figure-2 servers split across both critical
// links instead of piling onto one, without touching the detour.
func ComputeBalancedRoutes(g *topo.Graph, perDstBps float64) Routes {
	return computeSpreadRoutes(g, perDstBps, BaseCost)
}

// ComputeReactiveRoutes is the baseline defense's recomputation, modeled on
// Spiffy/CoDef-style rerouting around congestion: links measured above the
// flooding threshold are priced out, and trees are re-spread across what
// remains. Continuous load feedback is deliberately avoided — it is
// notoriously oscillatory at reconfiguration timescales [42].
func ComputeReactiveRoutes(n *netsim.Network, perDstBps, floodThreshold float64) Routes {
	if floodThreshold <= 0 {
		floodThreshold = 0.85
	}
	cost := func(l topo.Link) float64 {
		base := BaseCost(l)
		if n.LinkLoad(l.ID) >= floodThreshold {
			return base * floodedCostFactor
		}
		return base
	}
	return computeSpreadRoutes(n.G, perDstBps, cost)
}

// floodedCostFactor marks a link as effectively unusable for balancing.
const floodedCostFactor = 100

// targetUtil is the projected utilization TE fills a convergence link to
// before overflowing destination trees onto longer paths.
const targetUtil = 0.85

// computeSpreadRoutes builds per-destination trees and balances them where
// trees inevitably converge: the destination edge switch's incoming links.
// Using the controller's demand estimate (perDstBps, the "stable traffic
// matrix" of §1), each destination is assigned to the cheapest usable
// in-link with projected headroom; when the short links fill up, later
// trees overflow onto longer alternatives. The rest of the tree is computed
// with sibling in-links priced out so traffic funnels through the assigned
// link. For destinations whose edge has a single in-link this degrades to
// plain shortest paths.
func computeSpreadRoutes(g *topo.Graph, perDstBps float64, base CostFunc) Routes {
	if perDstBps <= 0 {
		perDstBps = 20e6
	}
	routes := make(Routes)
	for _, sw := range g.Switches() {
		routes[sw] = make(map[packet.Addr]topo.LinkID)
	}
	// Source edge switches, for access-cost estimation.
	srcEdges := make(map[topo.NodeID]bool)
	for _, h := range g.Hosts() {
		if sw := g.HostEdgeSwitch(h); sw >= 0 {
			srcEdges[sw] = true
		}
	}
	assignedBps := make(map[topo.LinkID]float64)
	for _, h := range g.Hosts() {
		dstEdge := g.HostEdgeSwitch(h)
		addr := packet.HostAddr(int(h))
		type cand struct {
			lid    topo.LinkID
			access float64
		}
		var candidates []cand
		for _, lid := range g.In(dstEdge) {
			l := g.Links[lid]
			if g.Nodes[l.From].Kind != topo.Switch {
				continue
			}
			candidates = append(candidates, cand{lid, accessCost(g, srcEdges, dstEdge, l, base)})
		}
		cost := base
		if len(candidates) > 1 {
			sort.Slice(candidates, func(i, j int) bool {
				if candidates[i].access != candidates[j].access {
					return candidates[i].access < candidates[j].access
				}
				return candidates[i].lid < candidates[j].lid
			})
			// Prefer the cheapest-access links that still have headroom;
			// among equal-access links, least-loaded-first so consecutive
			// destinations interleave instead of filling links in
			// correlated blocks. When everything short is full, overflow
			// to the next access tier; flooded links are the last resort.
			pick := candidates[0]
			picked := false
			var fallback *cand
			for i := range candidates {
				c := candidates[i]
				if c.access >= floodedCostFactor {
					continue
				}
				if fallback == nil || assignedBps[c.lid] < assignedBps[fallback.lid] {
					fallback = &candidates[i]
				}
				headroom := float64(targetUtil*g.Links[c.lid].BitsPerSec) - assignedBps[c.lid]
				if headroom < perDstBps {
					continue
				}
				switch {
				case !picked:
					pick, picked = c, true
				case c.access < pick.access:
					pick = c
				case c.access == pick.access && assignedBps[c.lid] < assignedBps[pick.lid]:
					pick = c
				}
			}
			if !picked && fallback != nil {
				pick = *fallback
			}
			assignedBps[pick.lid] += perDstBps
			siblings := make(map[topo.LinkID]bool)
			for _, c := range candidates {
				if c.lid != pick.lid {
					siblings[c.lid] = true
				}
			}
			inner := base
			cost = func(l topo.Link) float64 {
				if siblings[l.ID] {
					return inner(l) + 1e6
				}
				return inner(l)
			}
		} else if len(candidates) == 1 {
			assignedBps[candidates[0].lid] += perDstBps
		}
		//ffvet:ok filling distinct per-switch keys is order-independent
		for sw, lid := range NextHops(g, h, cost) {
			routes[sw][addr] = lid
		}
	}
	return routes
}

// accessCost estimates how expensive it is for traffic to reach (and cross)
// an in-link: the cheapest source-edge-to-link-head path cost plus the
// link's own cost, under the given pricing. The destination's own edge is
// not a source (its hosts don't transit their own in-links), so it is
// excluded. Flooded links inherit their ×100 pricing and rank as last
// resorts.
func accessCost(g *topo.Graph, srcEdges map[topo.NodeID]bool, dstEdge topo.NodeID, l topo.Link, base CostFunc) float64 {
	const inf = 1e18
	dist := make([]float64, len(g.Nodes))
	done := make([]bool, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	//ffvet:ok zeroing distinct Dijkstra sources is order-independent
	for s := range srcEdges {
		if s == dstEdge {
			continue
		}
		dist[s] = 0
	}
	for {
		best := topo.NodeID(-1)
		bd := inf
		for i, d := range dist {
			if !done[i] && d < bd {
				bd, best = d, topo.NodeID(i)
			}
		}
		if best == -1 || best == l.From {
			break
		}
		done[best] = true
		for _, lid := range g.Out(best) {
			e := g.Links[lid]
			if g.Nodes[e.To].Kind != topo.Switch {
				continue
			}
			if nd := dist[best] + base(e); nd < dist[e.To] {
				dist[e.To] = nd
			}
		}
	}
	if dist[l.From] >= inf {
		return inf
	}
	return dist[l.From] + base(l)
}

// Install writes a route configuration into every switch's router.
func Install(n *netsim.Network, routes Routes) {
	//ffvet:ok each route write targets a distinct (switch, dst) slot
	for sw, table := range routes {
		r := n.Router(sw)
		if r == nil {
			continue
		}
		//ffvet:ok each route write targets a distinct (switch, dst) slot
		for dst, l := range table {
			r.SetRoute(dst, l)
		}
	}
}

// Config tunes the TE controller.
type Config struct {
	// Period between reconfiguration cycles (the paper's baseline: 30 s).
	Period time.Duration
	// ControlLatency models computing + pushing the new configuration
	// (rule installation over the control channel). Default 100 ms.
	ControlLatency time.Duration
	// FloodThreshold is the utilization above which the reactive loop
	// treats a link as flooded and routes around it (default 0.85).
	FloodThreshold float64
	// PerDstDemandBps is the controller's traffic-matrix estimate of the
	// demand converging on one destination (default 20 Mbps). TE fills
	// convergence links to targetUtil of capacity under this estimate
	// before overflowing trees onto longer paths.
	PerDstDemandBps float64
}

func (c *Config) fillDefaults() {
	if c.Period == 0 {
		c.Period = 30 * time.Second
	}
	if c.ControlLatency == 0 {
		c.ControlLatency = 100 * time.Millisecond
	}
	if c.FloodThreshold == 0 {
		c.FloodThreshold = 0.85
	}
	if c.PerDstDemandBps == 0 {
		c.PerDstDemandBps = 20e6
	}
}

// TEController is the centralized controller. InstallStatic sets the
// stable-mode configuration; Start runs the periodic reactive loop (the
// baseline LFA defense).
type TEController struct {
	net *netsim.Network
	cfg Config

	ticker *eventsim.Ticker

	// Reconfigs counts completed reconfiguration cycles.
	Reconfigs uint64
	// OnReconfig, if set, observes each new configuration's install time.
	OnReconfig func(now time.Duration)
}

// NewTEController builds a controller for the network.
func NewTEController(n *netsim.Network, cfg Config) *TEController {
	cfg.fillDefaults()
	return &TEController{net: n, cfg: cfg}
}

// InstallStatic computes and installs stable-mode TE immediately (t = 0
// setup; no control latency): balanced per-destination trees.
func (c *TEController) InstallStatic() {
	Install(c.net, ComputeBalancedRoutes(c.net.G, c.cfg.PerDstDemandBps))
}

// Start begins the periodic reconfiguration loop: every Period, recompute
// load-aware routes and install them after ControlLatency. This is the
// §4.3 baseline defense: effective against a static attack, but blind
// between cycles — a rolling attacker moves faster.
func (c *TEController) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = eventsim.NewTicker(c.net.Eng, c.net.Owner(netsim.SiteTE), c.cfg.Period, func() {
		routes := ComputeReactiveRoutes(c.net, c.cfg.PerDstDemandBps, c.cfg.FloodThreshold)
		c.net.Eng.AfterRank(c.cfg.ControlLatency, c.net.Owner(netsim.SiteInstall).Next(), func() {
			Install(c.net, routes)
			c.Reconfigs++
			if c.OnReconfig != nil {
				c.OnReconfig(c.net.Now())
			}
		})
	})
}

// Stop halts the periodic loop.
func (c *TEController) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// ResetRun rewinds the controller for a warm re-run after the engine has
// been reset: the ticker handle is discarded WITHOUT Stop (its pending
// event was already dropped by the engine reset; cancelling a stale handle
// would corrupt the rebuilt calendar), counters zero, and the OnReconfig
// hook detaches. The caller reinstalls static routes afterwards, exactly
// as a fresh build does.
func (c *TEController) ResetRun() {
	c.ticker = nil
	c.Reconfigs = 0
	c.OnReconfig = nil
}
