package experiment

import (
	"fmt"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/control"
	"fastflex/internal/core"
	"fastflex/internal/metrics"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Defense selects the arm of the Figure-3 comparison.
type Defense int

// Figure-3 arms.
const (
	// DefenseBaseline is the §4.3 baseline: an SDN controller running
	// centralized load-aware TE on a fixed period (30 s), no dataplane
	// defenses.
	DefenseBaseline Defense = iota
	// DefenseFastFlex is the full fabric: multimode dataplane with
	// distributed mode changes.
	DefenseFastFlex
	// DefenseNone leaves the attack unanswered (reference floor).
	DefenseNone
)

func (d Defense) String() string {
	switch d {
	case DefenseBaseline:
		return "baseline-sdn"
	case DefenseFastFlex:
		return "fastflex"
	case DefenseNone:
		return "undefended"
	}
	return "unknown"
}

// Figure3Config parameterizes the rolling-LFA throughput experiment.
type Figure3Config struct {
	Defense Defense
	// Duration of the run (default 120 s as in the paper).
	Duration time.Duration
	// AttackStart (default 20 s) and AttackStop (default Duration, i.e.
	// the attack persists to the end).
	AttackStart, AttackStop time.Duration
	// Users / Servers / Bots sizes (defaults 8 / 8 / 40).
	Users, Servers, Bots int
	// UserRateBps per user flow (default 5 Mbps) and BotRateBps per bot
	// flow (default 1.5 Mbps — under the detector's low-rate ceiling).
	UserRateBps, BotRateBps float64
	// FlowsPerBot (default 2).
	FlowsPerBot int
	// ScoutEvery is the attacker's re-mapping period (default 8 s: a
	// traceroute campaign over the botnet takes time).
	ScoutEvery time.Duration
	// TargetLinks is how many links the attacker floods at once (default
	// 1, rolling between the two critical links round by round).
	TargetLinks int
	// BaselinePeriod is the baseline controller's reconfiguration period
	// (default 30 s per the paper).
	BaselinePeriod time.Duration
	// SampleEvery for the throughput series (default 1 s).
	SampleEvery time.Duration
	Seed        int64

	// Ablation knobs (A6): force rerouting of all flows (no pinning) or
	// disable individual boosters.
	RerouteAllOverride bool
	DisableObfuscation bool
	DisableDropper     bool

	// Shards selects the simulation engine: 0 runs the serial engine,
	// K >= 1 runs the windowed sharded engine over a K-way partition.
	// Results are identical for every K >= 1 (see DESIGN.md).
	Shards int
	// DisableBatch turns off same-instant delivery batching and
	// StaticLookahead pins the window bound to base+minCutDelay. Both are
	// perf knobs whose results are byte-identical to the defaults; the
	// golden tests run every combination to prove it.
	DisableBatch    bool
	StaticLookahead bool
	// Fabrics, when non-nil, lets the run check a fully built warm fabric
	// out instead of cold-building one (and check its own fabric back in
	// afterwards). The run resets the checked-out fabric to its seed —
	// byte-identical to a fresh build by the reset contract
	// (core.(*Fabric).Reset, pinned by the reset-vs-fresh goldens) — and
	// silently falls back to a cold build when the source has nothing or
	// the reset is refused. The Runner passes each worker's private cache
	// here; ffserved passes its lease pool.
	Fabrics FabricSource
	// LargeRegions, when > 0, swaps the plain Figure-2 topology for the
	// ISP-scale multi-region variant with that many remote regions of
	// RegionSize switches each. Attack and user traffic then enters the
	// victim region over the inter-region backbone.
	LargeRegions int
	// RegionSize is the ring size of each remote region (default 8,
	// minimum 3; only used when LargeRegions > 0).
	RegionSize int

	// substrate, when non-nil, swaps what lies under the arm (Figure3f).
	substrate *substrate
}

// substrate is the seam through which Figure3f runs the one rolling-LFA
// arm over the planet-scale hybrid fluid/packet substrate instead of
// carrying a private copy of it: a fabric built under it has the analytic
// fluid links on (netsim.Config.Fluid). Everything else about the arm —
// users, sampler, attacker, normalization, the warm-fabric lease — is
// Figure3's.
type substrate struct {
	// key replaces the figure2/multiregion shape prefix of FabricKey, so
	// the families never share a warm fabric.
	key string
	// topology builds the switch graph the hosts are attached to.
	topology func() *topo.MultiRegion
	// background starts the substrate's own flows on the leased fabric,
	// before the users: event-creation order is part of the output.
	background func(n *netsim.Network, bt *Fig3Topology)
	// ledger reads whatever the substrate accounts for, after the run and
	// before the fabric is checked in (a source may reset it at checkin).
	ledger func(n *netsim.Network)
}

func (c *Figure3Config) fillDefaults() {
	if c.Duration == 0 {
		c.Duration = 120 * time.Second
	}
	if c.AttackStart == 0 {
		c.AttackStart = 20 * time.Second
	}
	if c.AttackStop == 0 {
		c.AttackStop = c.Duration
	}
	if c.Users == 0 {
		c.Users = 8
	}
	if c.Servers == 0 {
		c.Servers = 8
	}
	if c.Bots == 0 {
		c.Bots = 40
	}
	if c.UserRateBps == 0 {
		c.UserRateBps = 5e6
	}
	if c.BotRateBps == 0 {
		c.BotRateBps = 1.5e6
	}
	if c.FlowsPerBot == 0 {
		c.FlowsPerBot = 2
	}
	if c.ScoutEvery == 0 {
		c.ScoutEvery = 8 * time.Second
	}
	if c.TargetLinks == 0 {
		c.TargetLinks = 1
	}
	if c.BaselinePeriod == 0 {
		c.BaselinePeriod = 30 * time.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LargeRegions > 0 && c.RegionSize == 0 {
		c.RegionSize = 8
	}
}

// fig3Topology is what Figure3 needs from a topology builder; both the
// plain Figure-2 victim network and the multi-region ISP-scale variant
// satisfy it.
type fig3Topology interface {
	Graph() *topo.Graph
	AttachUsers(n int) []topo.NodeID
	AttachBots(n int) []topo.NodeID
	AttachServers(n int) []topo.NodeID
}

// Fig3Topology is a fully built Figure-3 topology: the graph with every
// user, bot, and server host already attached. Construction is the only
// phase that mutates the graph; a simulation run only ever reads it. It
// travels with the fabric built over it (WarmFabric.Topo).
type Fig3Topology struct {
	G                    *topo.Graph
	Users, Bots, Servers []topo.NodeID
	// Regions holds each remote region's switch ring for the planet-scale
	// layout, whose background flows walk them; nil otherwise.
	Regions [][]topo.NodeID
}

// BuildFig3Topology constructs the topology a Figure3 run over cfg builds
// for itself: the Figure-2 victim network, the multi-region ISP-scale
// variant when LargeRegions > 0, or the substrate's own. The builders are
// deterministic (no RNG, creation-order node IDs), so two calls with equal
// configs produce structurally identical graphs.
func BuildFig3Topology(cfg Figure3Config) *Fig3Topology {
	cfg.fillDefaults()
	var f fig3Topology = topo.NewFigure2()
	bt := &Fig3Topology{}
	if cfg.LargeRegions > 0 {
		f = topo.NewMultiRegion(cfg.LargeRegions, cfg.RegionSize)
	}
	if cfg.substrate != nil {
		m := cfg.substrate.topology()
		f, bt.Regions = m, m.Regions
	}
	bt.Users = f.AttachUsers(cfg.Users)
	bt.Bots = f.AttachBots(cfg.Bots)
	bt.Servers = f.AttachServers(cfg.Servers)
	bt.G = f.Graph()
	return bt
}

// FabricKey is a canonical fingerprint of everything a config's fabric
// build consumes except the seed (after defaults): the topology shape
// plus every knob core.New reads — whether the defense is fielded,
// booster ablations, reroute override, and the engine configuration.
// Two configs with equal keys build interchangeable fabrics, and a reset
// rebinds the one build-time input not in the key (the seed), so a warm
// fabric under this key can serve any seed of the same scenario shape.
// DefenseNone and DefenseBaseline share a key on purpose: the baseline
// SDN controller is scenario wiring layered on a defense-off fabric.
func (c Figure3Config) FabricKey() string {
	c.fillDefaults()
	shape := "figure2"
	if c.LargeRegions > 0 {
		shape = fmt.Sprintf("multiregion/%dx%d", c.LargeRegions, c.RegionSize)
	}
	if c.substrate != nil {
		shape = c.substrate.key
	}
	return fmt.Sprintf("%s/u%d.b%d.s%d/off%t.ob%t.dr%t.ra%t.k%d.nb%t.sl%t",
		shape, c.Users, c.Bots, c.Servers, c.Defense != DefenseFastFlex,
		c.DisableObfuscation, c.DisableDropper, c.RerouteAllOverride,
		c.Shards, c.DisableBatch, c.StaticLookahead)
}

// Figure3Result extends Result with the headline numbers EXPERIMENTS.md
// records.
type Figure3Result struct {
	Result
	// Throughput is the per-interval normalized goodput of normal user
	// flows (1.0 = stable throughput without attack).
	Throughput *metrics.Series
	// StableMean is the absolute goodput (bytes/s) used as the
	// normalization base.
	StableMean float64
	// AttackMean is the mean normalized throughput during the attack.
	AttackMean float64
	// FractionDegraded is the fraction of attack-window samples below
	// 80% of stable throughput.
	FractionDegraded float64
	// Rolls is how many times the attacker re-targeted.
	Rolls uint64
}

// Figure3 reproduces the paper's Figure 3: normalized throughput of normal
// user flows under a rolling link-flooding attack, for one defense arm.
// It is the only place users, goodput sampler and attacker are wired onto
// a leased fabric; every front end and every topology scale goes through
// it.
func Figure3(cfg Figure3Config) *Figure3Result {
	cfg.fillDefaults()
	setupStart := time.Now()

	// Warm path: check a built fabric out and rewind it to this run's
	// seed. A refused reset (the fabric was reconfigured since build)
	// drops the entry and falls through to the cold build.
	var wf *WarmFabric
	var key string
	if cfg.Fabrics != nil {
		key = cfg.FabricKey()
		wf = cfg.Fabrics.Checkout(key)
		if wf != nil && wf.Fab.Reset(cfg.Seed) != nil {
			wf = nil
		}
	}
	if wf == nil {
		wf = &WarmFabric{Key: key, Topo: BuildFig3Topology(cfg)}
	}
	bt := wf.Topo
	var srvAddr []packet.Addr
	for _, s := range bt.Servers {
		srvAddr = append(srvAddr, packet.HostAddr(int(s)))
	}
	if wf.Fab == nil {
		coreCfg := core.Config{
			Protected:          srvAddr,
			DefenseOff:         cfg.Defense != DefenseFastFlex,
			DisableObfuscation: cfg.DisableObfuscation,
			DisableDropper:     cfg.DisableDropper,
		}
		coreCfg.Net = netsim.DefaultConfig()
		coreCfg.Net.Seed = cfg.Seed
		coreCfg.Net.Shards = cfg.Shards
		coreCfg.Net.DisableBatch = cfg.DisableBatch
		coreCfg.Net.StaticLookahead = cfg.StaticLookahead
		coreCfg.Net.Fluid = cfg.substrate != nil
		coreCfg.Reroute.RerouteAllOverride = cfg.RerouteAllOverride
		var err error
		wf.Fab, err = core.New(bt.G, coreCfg)
		if err != nil {
			panic(fmt.Sprintf("experiment: building fabric: %v", err))
		}
	}
	fab := wf.Fab
	n := fab.Net

	if cfg.substrate != nil {
		cfg.substrate.background(n, bt)
	}
	if cfg.Defense == DefenseBaseline {
		bl := control.NewTEController(n, control.Config{Period: cfg.BaselinePeriod})
		bl.Start()
	}

	// Normal users: application-limited TCP flows spread over the servers.
	// They offer at most UserRateBps each but collapse TCP-style under
	// loss, which is what gives Figure 3 its depth.
	userSrcs := make([]*netsim.AIMDSource, 0, cfg.Users)
	for i, u := range bt.Users {
		src := netsim.NewAIMDSource(n, u, srvAddr[i%len(srvAddr)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(cfg.UserRateBps)
		src.Start()
		userSrcs = append(userSrcs, src)
	}

	// Goodput counter: user payload bytes acknowledged end-to-end.
	userGoodput := func() uint64 {
		var total uint64
		for _, src := range userSrcs {
			total += src.AckedBytes()
		}
		return total
	}
	sampler := metrics.RateSampler(n.Eng, fmt.Sprintf("user goodput (%v)", cfg.Defense),
		cfg.SampleEvery, userGoodput)

	// The rolling Crossfire attacker.
	atk := attack.NewCrossfire(n, attack.CrossfireConfig{
		Bots: bt.Bots, Servers: srvAddr,
		BotRateBps: cfg.BotRateBps, FlowsPerBot: cfg.FlowsPerBot,
		TargetLinks: cfg.TargetLinks,
		Rolling:     true, ScoutEvery: cfg.ScoutEvery,
		Start: cfg.AttackStart,
	})
	atk.Launch()
	if cfg.AttackStop < cfg.Duration {
		n.Eng.Schedule(cfg.AttackStop, atk.Stop)
	}

	setupWall := time.Since(setupStart)
	fab.Run(cfg.Duration)
	sampler.Stop()

	raw := sampler.S
	// Normalize by the pre-attack stable window (skip the first 5 s of
	// slow convergence).
	stable := raw.MeanBetween(5*time.Second, cfg.AttackStart)
	norm := raw.Normalize(stable)
	norm.Name = fmt.Sprintf("normalized user throughput (%v)", cfg.Defense)

	res := &Figure3Result{
		Throughput: norm,
		StableMean: stable,
		AttackMean: norm.MeanBetween(cfg.AttackStart+2*time.Second, cfg.AttackStop),
		Rolls:      atk.Rolls,
	}
	res.FractionDegraded = fractionBelowBetween(norm, 0.8, cfg.AttackStart+2*time.Second, cfg.AttackStop)
	res.Workload(n.EventsFired(), n.PacketsProcessed())
	res.SetupWall = setupWall
	res.Name = "Figure 3 (" + cfg.Defense.String() + ")"
	res.Series = []*metrics.Series{norm}
	res.Note("stable goodput %.1f Mbps, attack-window mean %.0f%% of stable, %.0f%% of samples degraded below 80%%, attacker rolls %d",
		stable*8/1e6, 100*res.AttackMean, 100*res.FractionDegraded, atk.Rolls)
	res.Metric("attack_mean_"+cfg.Defense.String(), res.AttackMean)
	res.Metric("degraded_"+cfg.Defense.String(), res.FractionDegraded)
	res.Metric("stable_mbps_"+cfg.Defense.String(), stable*8/1e6)
	if cfg.substrate != nil {
		cfg.substrate.ledger(n)
	}

	// Hand the now-idle fabric back for the next same-shape run. This is
	// the run's last touch of the fabric: a shared source (ffserved's
	// pool) may lease it to another goroutine immediately.
	if cfg.Fabrics != nil {
		cfg.Fabrics.Checkin(wf)
	}
	return res
}

func fractionBelowBetween(s *metrics.Series, th float64, from, to time.Duration) float64 {
	n, below := 0, 0
	for i, t := range s.T {
		if t >= from && t < to {
			n++
			if s.V[i] < th {
				below++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(below) / float64(n)
}

// Figure3Compare runs all arms and assembles the side-by-side table the
// paper's figure conveys.
func Figure3Compare(base Figure3Config) *Result {
	res := &Result{Name: "Figure 3: FastFlex vs baseline under rolling LFA"}
	arms := compareArms(res, base, []Defense{DefenseNone, DefenseBaseline, DefenseFastFlex},
		"attack_mean_", "degraded_", "stable_mbps_")
	for _, r := range arms {
		res.Notes = append(res.Notes, r.Notes...)
	}
	return res
}

// compareArms runs base once per defense and folds each arm into res: a
// table row, the throughput series, the workload and setup-wall totals,
// and the arm's own metrics with the given prefixes.
func compareArms(res *Result, base Figure3Config, arms []Defense, metricPrefixes ...string) []*Figure3Result {
	res.Table = &metrics.Table{Header: []string{"defense", "stable Mbps", "attack mean", "degraded<80%", "rolls"}}
	var out []*Figure3Result
	for _, d := range arms {
		cfg := base
		cfg.Defense = d
		r := Figure3(cfg)
		res.Table.AddRow(d.String(),
			fmt.Sprintf("%.1f", r.StableMean*8/1e6),
			fmt.Sprintf("%.2f", r.AttackMean),
			fmt.Sprintf("%.2f", r.FractionDegraded),
			fmt.Sprintf("%d", r.Rolls))
		res.Series = append(res.Series, r.Throughput)
		for _, p := range metricPrefixes {
			res.Metric(p+d.String(), r.Metrics[p+d.String()])
		}
		res.Workload(r.Events, r.Packets)
		res.SetupWall += r.SetupWall
		out = append(out, r)
	}
	return out
}
