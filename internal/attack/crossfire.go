package attack

import (
	"fmt"
	"sort"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// HopPair is a directed router-to-router adjacency observed in traceroutes
// — the attacker's view of a "link".
type HopPair [2]packet.Addr

func (p HopPair) String() string { return fmt.Sprintf("%v→%v", p[0], p[1]) }

// CrossfireConfig parameterizes the attacker.
type CrossfireConfig struct {
	// Bots are the compromised hosts.
	Bots []topo.NodeID
	// Servers are the public servers near the victim the bots open
	// connections to (the victim itself never sees attack traffic).
	Servers []packet.Addr
	// BotRateBps is the per-bot-flow rate — low enough to look like a
	// legitimate web client (default 500 kbps).
	BotRateBps float64
	// FlowsPerBot fans each assigned bot into this many parallel
	// low-rate flows (default 2).
	FlowsPerBot int
	// TargetBps is the aggregate attack bandwidth aimed at each target
	// link (default 130 Mbps ≈ 1.3× a default link). Crossfire selects
	// just enough flows, spread round-robin across bots, so that no bot
	// aggregation point is itself saturated — only the target links are.
	TargetBps float64
	// TargetLinks is how many links are flooded simultaneously (default
	// 1; the paper's Figure-2 scenario has two critical links).
	TargetLinks int
	// Rolling enables re-targeting on detected route changes (§4
	// "rolling attacks").
	Rolling bool
	// ScoutEvery is the reconnaissance period (default 2s).
	ScoutEvery time.Duration
	// ScoutTimeout is the per-traceroute wait (default 300ms).
	ScoutTimeout time.Duration
	// MaxTTL bounds traceroutes (default 8).
	MaxTTL int
	// Start delays the first reconnaissance (default 0).
	Start time.Duration
}

func (c *CrossfireConfig) fillDefaults() {
	if c.BotRateBps == 0 {
		c.BotRateBps = 500e3
	}
	if c.FlowsPerBot == 0 {
		c.FlowsPerBot = 2
	}
	if c.TargetBps == 0 {
		c.TargetBps = 130e6
	}
	if c.TargetLinks == 0 {
		c.TargetLinks = 1
	}
	if c.ScoutEvery == 0 {
		c.ScoutEvery = 2 * time.Second
	}
	if c.ScoutTimeout == 0 {
		c.ScoutTimeout = 300 * time.Millisecond
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = 8
	}
}

// flowKey identifies one (bot, server) pair.
type flowKey struct {
	bot    topo.NodeID
	server packet.Addr
}

// Crossfire runs the attack. Create with NewCrossfire, then Launch.
type Crossfire struct {
	net *netsim.Network
	cfg CrossfireConfig

	traces  map[flowKey][]packet.Addr // latest hop lists
	targets []HopPair
	sources map[flowKey][]*netsim.CBRSource
	ticker  *eventsim.Ticker
	sport   uint16

	// Telemetry for experiments.
	Rolls          uint64    // re-targetings performed
	ChangesSeen    uint64    // scout rounds that observed a route change
	TargetHistory  []HopPair // every target in order
	ScoutRounds    uint64
	ActiveBotFlows int
}

// NewCrossfire builds an attacker over the network.
func NewCrossfire(n *netsim.Network, cfg CrossfireConfig) *Crossfire {
	cfg.fillDefaults()
	return &Crossfire{
		net:     n,
		cfg:     cfg,
		traces:  make(map[flowKey][]packet.Addr),
		sources: make(map[flowKey][]*netsim.CBRSource),
		sport:   20000,
	}
}

// Launch schedules the attack: reconnaissance first, then flooding of the
// best target, then (if Rolling) periodic scouting and re-targeting.
// Re-launching after Stop resumes immediately (pulsing attacks).
func (a *Crossfire) Launch() {
	delay := a.cfg.Start - a.net.Eng.Now()
	if delay < 0 {
		delay = 0
	}
	own := a.net.Owner(netsim.SiteAttack)
	a.net.Eng.AfterRank(delay, own.Next(), func() {
		a.scout(func() {
			a.retarget(a.pickTargets(nil))
			if a.cfg.Rolling {
				a.ticker = eventsim.NewTicker(a.net.Eng, own, a.cfg.ScoutEvery, a.scoutRound)
			}
		})
	})
}

// Stop halts flooding and scouting.
func (a *Crossfire) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
	keys := make([]flowKey, 0, len(a.sources))
	for k := range a.sources {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bot != keys[j].bot {
			return keys[i].bot < keys[j].bot
		}
		return keys[i].server < keys[j].server
	})
	for _, k := range keys {
		for _, s := range a.sources[k] {
			s.Stop()
		}
	}
	a.ActiveBotFlows = 0
}

// scout traceroutes every (bot, server) pair, storing hop lists, then
// calls done.
func (a *Crossfire) scout(done func()) {
	a.ScoutRounds++
	pending := 0
	for _, bot := range a.cfg.Bots {
		for _, srv := range a.cfg.Servers {
			pending++
			key := flowKey{bot: bot, server: srv}
			a.net.Host(bot).Traceroute(srv, a.cfg.MaxTTL, a.cfg.ScoutTimeout, func(hops []packet.Addr) {
				a.traces[key] = hops
				pending--
				if pending == 0 {
					done()
				}
			})
		}
	}
	if pending == 0 {
		done()
	}
}

// pairsOf extracts the attacker-visible links from one trace.
func pairsOf(hops []packet.Addr) []HopPair {
	var out []HopPair
	for i := 0; i+1 < len(hops); i++ {
		if hops[i] != 0 && hops[i+1] != 0 {
			out = append(out, HopPair{hops[i], hops[i+1]})
		}
	}
	return out
}

// rankedTargets orders observed hop pairs by (coverage desc, lateness
// desc): the pair crossed by the most flows, preferring pairs deep in the
// traces (close to the victim area) — the Crossfire selection rule.
func (a *Crossfire) rankedTargets() []HopPair {
	count := make(map[HopPair]int)
	depth := make(map[HopPair]int)
	//ffvet:ok commutative count/max accumulation; pairs are sorted before use
	for _, hops := range a.traces {
		for i, p := range pairsOf(hops) {
			count[p]++
			if i > depth[p] {
				depth[p] = i
			}
		}
	}
	pairs := make([]HopPair, 0, len(count))
	for p := range count {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if count[pairs[i]] != count[pairs[j]] {
			return count[pairs[i]] > count[pairs[j]]
		}
		if depth[pairs[i]] != depth[pairs[j]] {
			return depth[pairs[i]] > depth[pairs[j]]
		}
		return less(pairs[i], pairs[j])
	})
	return pairs
}

func less(a, b HopPair) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// pickTargets selects the top TargetLinks pairs from the current ranking,
// preferring pairs not in the avoid set (the previous targets, when
// rolling).
func (a *Crossfire) pickTargets(avoid []HopPair) []HopPair {
	avoidSet := make(map[HopPair]bool, len(avoid))
	for _, p := range avoid {
		avoidSet[p] = true
	}
	ranked := a.rankedTargets()
	var fresh, fallback []HopPair
	for _, p := range ranked {
		if avoidSet[p] {
			fallback = append(fallback, p)
		} else {
			fresh = append(fresh, p)
		}
	}
	picks := fresh
	if len(picks) > a.cfg.TargetLinks {
		picks = picks[:a.cfg.TargetLinks]
	}
	for _, p := range fallback {
		if len(picks) >= a.cfg.TargetLinks {
			break
		}
		picks = append(picks, p)
	}
	return picks
}

// flowsCrossing returns the (bot, server) pairs whose current traces cross
// the pair — the flows that can congest it.
func (a *Crossfire) flowsCrossing(p HopPair) []flowKey {
	var out []flowKey
	for key, hops := range a.traces {
		for _, q := range pairsOf(hops) {
			if q == p {
				out = append(out, key)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bot != out[j].bot {
			return out[i].bot < out[j].bot
		}
		return out[i].server < out[j].server
	})
	return out
}

// retarget points the botnet at new hop pairs: for each target, just
// enough flows crossing it start (with fresh ports — fresh TCP
// connections) to exceed TargetBps, spread round-robin across bots;
// everything else stops.
func (a *Crossfire) retarget(targets []HopPair) {
	a.targets = targets
	a.TargetHistory = append(a.TargetHistory, targets...)
	selected := make(map[flowKey]bool)
	perFlow := float64(a.cfg.BotRateBps * float64(a.cfg.FlowsPerBot))
	for _, p := range targets {
		crossing := a.flowsCrossing(p)
		// Round-robin over servers (then bots within each): the budget is
		// spread across as many decoy destinations and sources as
		// possible, so no single server, bot, or aggregation link stands
		// out — and a defender rerouting the traffic disperses it rather
		// than dragging the full attack onto one new path.
		byServer := make(map[packet.Addr][]flowKey)
		var serverOrder []packet.Addr
		for _, key := range crossing {
			if _, ok := byServer[key.server]; !ok {
				serverOrder = append(serverOrder, key.server)
			}
			byServer[key.server] = append(byServer[key.server], key)
		}
		sort.Slice(serverOrder, func(i, j int) bool { return serverOrder[i] < serverOrder[j] })
		var have float64
		for round := 0; have < a.cfg.TargetBps; round++ {
			progress := false
			for _, srv := range serverOrder {
				if round < len(byServer[srv]) {
					if !selected[byServer[srv][round]] {
						selected[byServer[srv][round]] = true
						have += perFlow
					}
					progress = true
					if have >= a.cfg.TargetBps {
						break
					}
				}
			}
			if !progress {
				break // all crossing flows already selected
			}
		}
	}
	active := 0
	for _, bot := range a.cfg.Bots {
		for _, srv := range a.cfg.Servers {
			key := flowKey{bot: bot, server: srv}
			if selected[key] {
				if len(a.sources[key]) == 0 {
					for i := 0; i < a.cfg.FlowsPerBot; i++ {
						a.sport++
						src := netsim.NewCBRSource(a.net, bot, srv, a.sport, 80,
							packet.ProtoTCP, 512, a.cfg.BotRateBps)
						a.sources[key] = append(a.sources[key], src)
					}
				}
				for _, s := range a.sources[key] {
					s.Start()
					active++
				}
			} else {
				for _, s := range a.sources[key] {
					s.Stop()
				}
				// Fresh connections next time this pair is selected.
				delete(a.sources, key)
			}
		}
	}
	a.ActiveBotFlows = active
}

// usable reports whether a trace is trustworthy for change detection: it
// responded at every probed hop (no interior holes from lost probes). A
// careful attacker does not react to measurement noise from her own
// congestion.
func usable(hops []packet.Addr) bool {
	if len(hops) == 0 {
		return false
	}
	for _, h := range hops {
		if h == 0 {
			return false
		}
	}
	return true
}

// scoutRound re-traceroutes and rolls the target if the routes serving the
// current target changed (the rolling-attack trigger from §4: "whenever
// she detected a routing change"). Only complete traces are compared.
func (a *Crossfire) scoutRound() {
	old := make(map[flowKey][]packet.Addr, len(a.traces))
	//ffvet:ok whole-map copy; iteration order cannot escape into simulation state
	for k, v := range a.traces {
		old[k] = v
	}
	a.scout(func() {
		changed := 0
		//ffvet:ok commutative counter; iteration order cannot escape
		for k, hops := range a.traces {
			if !usable(hops) || !usable(old[k]) {
				continue
			}
			if routeChanged(old[k], hops) {
				changed++
			}
		}
		// Roll only on corroborated evidence: at least two flows whose
		// routes genuinely diverged (truncated traces — probe losses at
		// the tail — are measurement noise, not route changes).
		if changed < 2 {
			return
		}
		a.ChangesSeen++
		next := a.pickTargets(a.targets)
		if len(next) == 0 {
			return
		}
		a.Rolls++
		a.retarget(next)
	})
}

// routeChanged reports whether two complete traces disagree on any probed
// hop. A shorter trace that is a prefix of the longer one is treated as
// unchanged: the missing tail is a lost probe, not a different route.
func routeChanged(a, b []packet.Addr) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

func equalHops(a, b []packet.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Target returns the attacker's primary target pair (zero if none).
func (a *Crossfire) Target() HopPair {
	if len(a.targets) == 0 {
		return HopPair{}
	}
	return a.targets[0]
}

// Targets returns all current target pairs.
func (a *Crossfire) Targets() []HopPair { return a.targets }
