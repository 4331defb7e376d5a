package main

// adapter.go is the only file that imports the simulator. Everything the
// benchmark knows about this repository's entry points lives here, behind
// a handful of functions: run an arm (simWorkloads), the warm-fabric seam
// with its counter reads and reset timing (fabrics), the package-to-layer
// rule (layerOf), the isolated layer probes (probes), and the service
// (startService, directRun). When an entry point is renamed, this file
// changes and no metric or workload name does.

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path"
	"strings"
	"time"

	"fastflex/internal/core"
	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/experiment"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/serve"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// warmupHorizon is the simulated length of the run that follows each cold
// build during set-up: long enough to push the fresh fabric through one
// run/collect/checkin, short enough that set-up time stays dominated by
// the build it is meant to expose.
const warmupHorizon = time.Second

// simWorkloads returns the four simulation workloads. Sizes follow the
// registry's short scenarios (30 s simulated, attack at 10 s); seeds is how
// many distinct seeds one cycle runs, i.e. the fixed work composition
// every statistic is computed over. lfa-defended cycles over eight because
// the defence reshapes traffic per seed (2.9-3.6 M switch passes a rep);
// the other workloads' reps differ by about 1 % between seeds. The goodput
// gates sit well clear of the per-seed range (defended 0.67-0.77 on the
// paper topology, undefended 0.51-0.63), so no seed fails them by chance.
func simWorkloads() []simSpec {
	fig3 := func(id string, d experiment.Defense, shards int) func(int64, bool, *fabrics) simRun {
		return func(seed int64, warmup bool, fab *fabrics) simRun {
			cfg, _ := experiment.Fig3Scenario(id, seed, true)
			cfg.Defense, cfg.Shards, cfg.Fabrics = d, shards, fab
			if warmup {
				cfg.Duration, cfg.AttackStart = warmupHorizon, warmupHorizon/2
			}
			fab.attackStart = cfg.AttackStart
			r := experiment.Figure3(cfg)
			run := simRun{Text: r.String(), Events: r.Events, Packets: r.Packets, SetupWall: r.SetupWall}
			if d == experiment.DefenseFastFlex {
				run.Defended = r.AttackMean
			} else {
				run.Undefended = r.AttackMean
			}
			return run
		}
	}
	fig3Topo := func(id string) func() {
		return func() {
			cfg, _ := experiment.Fig3Scenario(id, 1, true)
			experiment.BuildFig3Topology(cfg)
		}
	}
	planet := func(seed int64, warmup bool, fab *fabrics) simRun {
		cfg := experiment.Figure3fConfig{Seed: seed, Duration: 20 * time.Second, AttackStart: 8 * time.Second, Fabrics: fab}
		if warmup {
			cfg.Duration, cfg.AttackStart = warmupHorizon, warmupHorizon/2
		}
		fab.attackStart = cfg.AttackStart
		r := experiment.Figure3f(cfg)
		run := simRun{
			Text: r.String(), Events: r.Events, Packets: r.Packets, SetupWall: r.SetupWall,
			Defended:   r.Metrics["attack_mean_fastflex"],
			Undefended: r.Metrics["attack_mean_undefended"],
		}
		if !warmup {
			if e := r.Metrics["bg_conservation_err"]; !(e <= 1e-3) {
				run.Faults = append(run.Faults, fmt.Sprintf("fluid conservation error %.2g > 1e-3", e))
			}
			if r.ModeledHosts < 1_000_000 {
				run.Faults = append(run.Faults, fmt.Sprintf("modeled hosts %d < 10^6", r.ModeledHosts))
			}
		}
		return run
	}
	nsPerPkt := func(c armCost) float64 { return 1e9 * c.wallSec / c.packets }
	return []simSpec{
		{
			name: "lfa-defended", horizon: 30 * time.Second, seeds: 8,
			run:       fig3("fig3", experiment.DefenseFastFlex, 0),
			ref:       fig3("fig3", experiment.DefenseNone, 0),
			refMetric: "booster.defense_tax_ns",
			refValue:  func(own, ref armCost) float64 { return nsPerPkt(own) - nsPerPkt(ref) },
			buildTopo: fig3Topo("fig3"), minDefended: 0.65,
		},
		{
			name: "lfa-bare", horizon: 30 * time.Second, seeds: 4,
			run:       fig3("fig3", experiment.DefenseNone, 0),
			ref:       fig3("fig3", experiment.DefenseFastFlex, 0),
			refMetric: "booster.defense_tax_ns",
			refValue:  func(own, ref armCost) float64 { return nsPerPkt(ref) - nsPerPkt(own) },
			buildTopo: fig3Topo("fig3"), maxUndefended: 0.85,
		},
		{
			name: "isp-sharded", horizon: 30 * time.Second, seeds: 2,
			run:       fig3("fig3x", experiment.DefenseFastFlex, 2),
			ref:       fig3("fig3x", experiment.DefenseFastFlex, 0),
			refMetric: "netsim.shard.speedup_x",
			refValue:  func(own, ref armCost) float64 { return ref.wallSec / own.wallSec },
			buildTopo: fig3Topo("fig3x"), minDefended: 0.65,
		},
		{
			name: "planet-hybrid", horizon: 20 * time.Second, seeds: 3,
			run:         planet,
			buildTopo:   func() { topo.NewPlanetScale(6, 4) },
			minDefended: 0.70, maxUndefended: 0.85,
		},
	}
}

// counts are the exact counters one simulation leaves behind, read through
// public accessors when its fabric is checked back in. A rep that runs two
// arms checks in twice; the counters add up, except the fluid ledger and
// the mode timeline, which only the FastFlex arm carries.
type counts struct {
	events, packets                                uint64
	delivered, dropsQueue, dropsPipe, dropsNoRoute uint64
	poolGets, poolNews                             uint64
	windows, dedupEvictions, modeEvents            uint64
	firstChange                                    time.Duration
	fluidInjected, fluidDelivered                  float64
	fluidDropped, fluidQueued                      float64
}

func readCounts(f *core.Fabric, attackStart time.Duration) counts {
	n := f.Net
	c := counts{
		events: n.EventsFired(), packets: n.PacketsProcessed(),
		delivered: n.Delivered(), dropsQueue: n.DropsQueue(),
		dropsPipe: n.DropsPipeline(), dropsNoRoute: n.DropsNoRoute(),
		windows: n.Windows(),
	}
	c.poolGets, c.poolNews = n.PoolStats()
	for _, sw := range n.G.Switches() {
		c.dedupEvictions += n.Switch(sw).DedupEvictions()
	}
	evs := f.ModeEvents()
	c.modeEvents = uint64(len(evs))
	for _, e := range evs {
		if e.At >= attackStart {
			c.firstChange = e.At - attackStart
			break
		}
	}
	if inj := n.FluidInjectedBytes(); inj > 0 {
		c.fluidInjected, c.fluidDelivered = inj, n.FluidDeliveredBytes()
		c.fluidDropped, c.fluidQueued = n.FluidDroppedBytes(), n.FluidQueuedBytes()
	}
	return c
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.packets += o.packets
	c.delivered += o.delivered
	c.dropsQueue += o.dropsQueue
	c.dropsPipe += o.dropsPipe
	c.dropsNoRoute += o.dropsNoRoute
	c.poolGets += o.poolGets
	c.poolNews += o.poolNews
	c.windows += o.windows
	c.dedupEvictions += o.dedupEvictions
	c.modeEvents += o.modeEvents
	if o.firstChange > 0 {
		c.firstChange += o.firstChange
	}
	if o.fluidInjected > 0 {
		c.fluidInjected += o.fluidInjected
		c.fluidDelivered += o.fluidDelivered
		c.fluidDropped += o.fluidDropped
		c.fluidQueued += o.fluidQueued
	}
}

// metrics renders counters summed over reps simulations as the ledger's
// [count] metrics: totals become per-rep values, ratios come from totals.
func (c counts) metrics(reps int) map[string]float64 {
	per := func(v uint64) float64 { return float64(v) / float64(reps) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	drops := c.dropsQueue + c.dropsPipe + c.dropsNoRoute
	return map[string]float64{
		"eventsim.events_per_pkt":       ratio(float64(c.events), float64(c.packets)),
		"netsim.delivered":              per(c.delivered),
		"netsim.drops_queue":            per(c.dropsQueue),
		"netsim.drops_pipeline":         per(c.dropsPipe),
		"netsim.drops_noroute":          per(c.dropsNoRoute),
		"netsim.drop_ratio":             ratio(float64(drops), float64(drops+c.delivered)),
		"netsim.pool_new_ratio":         ratio(float64(c.poolNews), float64(c.poolGets)),
		"netsim.shard.windows":          per(c.windows),
		"netsim.shard.pkts_per_window":  ratio(float64(c.packets), float64(c.windows)),
		"netsim.fluid.conservation_err": ratio(math.Abs(c.fluidInjected-c.fluidDelivered-c.fluidDropped-c.fluidQueued), c.fluidInjected),
		"netsim.fluid.delivered_frac":   ratio(c.fluidDelivered, c.fluidInjected),
		"dataplane.dedup_evictions":     per(c.dedupEvictions),
		"mode.events_per_rep":           per(c.modeEvents),
		"mode.first_change_ms":          float64(c.firstChange) / float64(reps) / 1e6,
	}
}

// seam is what the benchmark observed at the warm-fabric seam since the
// last take: when each arm checked its fabric out and in, the counters it
// left, and (traced only) how long a direct reset of the just-run fabric
// took.
type seam struct {
	arms    []armSeam
	counts  counts
	resetMS []float64
}

type armSeam struct{ checkout, checkin, done time.Time }

// fabrics is the benchmark-owned experiment.FabricSource: the repository's
// own worker-local cache with timestamps and counter reads added at the
// two calls every run makes through it, which is how the layers below are
// observed without changing them.
type fabrics struct {
	cache       *experiment.FabricCache
	timeReset   bool
	attackStart time.Duration // set by the run closure before each call
	seam        seam
}

func newFabrics(timeReset bool) *fabrics {
	return &fabrics{cache: experiment.NewFabricCache(0), timeReset: timeReset}
}

func (f *fabrics) Checkout(key string) *experiment.WarmFabric {
	f.seam.arms = append(f.seam.arms, armSeam{checkout: time.Now()})
	return f.cache.Checkout(key)
}

func (f *fabrics) Checkin(wf *experiment.WarmFabric) {
	arm := &f.seam.arms[len(f.seam.arms)-1]
	arm.checkin = time.Now()
	f.seam.counts.add(readCounts(wf.Fab, f.attackStart))
	if f.timeReset {
		t := time.Now()
		if err := wf.Fab.Reset(1); err == nil {
			f.seam.resetMS = append(f.seam.resetMS, ms(time.Since(t)))
		}
	}
	f.cache.Checkin(wf)
	arm.done = time.Now()
}

func (f *fabrics) take() seam {
	s := f.seam
	f.seam = seam{}
	return s
}

// layerOf is the package-to-layer bucketing rule for CPU samples: a sample
// belongs to the layer of its leaf frame's package, except that the fluid
// substrate and the shard runtime are split out of their packages by file.
func layerOf(pkg, file string) string {
	const module = "fastflex/internal/"
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "fastflex/bench"):
		return "bench"
	case !strings.HasPrefix(pkg, module):
		return "runtime" // the Go runtime and standard library
	}
	name := strings.TrimPrefix(pkg, module)
	base := path.Base(file)
	switch {
	case name == "netsim" && base == "fluid.go":
		return "netsim.fluid"
	case (name == "netsim" || name == "eventsim") && base == "shard.go":
		return "netsim.shard"
	case name == "eventsim", name == "netsim", name == "dataplane":
		return name
	case name == "booster", name == "sketch", name == "mode", name == "state":
		return "booster"
	}
	return "other"
}

// cpuLayers are the layers that get a cpu_ns_per_pkt metric.
var cpuLayers = []string{"eventsim", "netsim", "netsim.shard", "netsim.fluid", "dataplane", "booster"}

// probe is an isolated microworkload that calls one layer's public API
// only; run returns the metric's value. Work per probe is fixed.
type probe struct {
	name string
	run  func() float64
}

func probes() []probe {
	return []probe{
		{"eventsim.hold_ns", probeHold},
		{"netsim.hop_ns", probeHop},
		{"netsim.fluid.update_ns", probeFluidUpdate},
		{"dataplane.route_pass_ns", probeRoutePass},
		{"sketch.update_ns", probeSketch},
		{"topo.partition_ms", probePartition},
	}
}

func nsPerOp(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// probeHold is the classic hold model on a bare engine: 4096 pending
// events, each firing re-schedules itself at now+Exp(50 us), one in twenty
// beyond the 8.4 ms near ring so the far buffer and migration are paid too.
func probeHold() float64 {
	const pending, fires = 4096, 1 << 21
	eng := eventsim.New(1)
	rng := rand.New(rand.NewSource(1))
	next := func() time.Duration {
		d := time.Duration(rng.ExpFloat64() * 50e3)
		if rng.Intn(20) == 0 {
			d += 8400 * time.Microsecond
		}
		return d
	}
	var fn func()
	fn = func() { eng.After(next(), fn) }
	for i := 0; i < pending; i++ {
		eng.After(next(), fn)
	}
	for i := 0; i < fires/8; i++ { // warm the event free list and the ring
		eng.Step()
	}
	start := time.Now()
	for i := 0; i < fires; i++ {
		eng.Step()
	}
	return nsPerOp(start, fires)
}

// routeAll installs shortest-path host routes on every switch of a
// router-only network.
func routeAll(n *netsim.Network) {
	for _, sw := range n.G.Switches() {
		r := n.Router(sw)
		for _, h := range n.G.Hosts() {
			if p, ok := n.G.ShortestPath(sw, h, nil); ok {
				r.SetRoute(packet.HostAddr(int(h)), p.Links[0])
			}
		}
	}
}

// probeHop drives 64-byte CBR traffic down an 8-switch line of router-only
// switches: the smallest packet, where per-packet link and event cost
// dominates.
func probeHop() float64 {
	g := topo.NewLinear(8)
	sws := g.Switches()
	src := g.AttachHost(sws[0], "src", topo.DefaultHostBPS, topo.DefaultHostDelay)
	dst := g.AttachHost(sws[len(sws)-1], "dst", topo.DefaultHostBPS, topo.DefaultHostDelay)
	n := netsim.New(g, netsim.DefaultConfig())
	routeAll(n)
	cbr := netsim.NewCBRSource(n, src, packet.HostAddr(int(dst)), 1, 2, packet.ProtoUDP, 64, 60e6)
	cbr.Start()
	n.Run(100 * time.Millisecond) // warm pools and rings
	before := n.PacketsProcessed()
	start := time.Now()
	n.Run(n.Now() + 1500*time.Millisecond)
	return nsPerOp(start, int(n.PacketsProcessed()-before))
}

// probeFluidUpdate measures one FluidFlow.SetRate propagated to
// quiescence, over the 50 background flows of the planet-scale layout.
func probeFluidUpdate() float64 {
	const updates = 4000
	m := topo.NewPlanetScale(6, 4)
	servers := m.AttachServers(4)
	cfg := netsim.DefaultConfig()
	cfg.Fluid = true
	n := netsim.New(m.Graph(), cfg)
	var flows []*netsim.FluidFlow
	for ri, ring := range m.Regions {
		for i := 2; i < len(ring); i++ {
			flows = append(flows, n.NewFluidFlow(ring[i], ring[(i+len(ring)/2)%len(ring)], 20e6, 20000))
		}
		flows = append(flows, n.NewFluidFlow(ring[2], servers[ri%len(servers)], 20e6, 20000))
	}
	for _, f := range flows {
		f.Start()
	}
	n.Run(200 * time.Millisecond)
	start := time.Now()
	for i := 0; i < updates; i++ {
		flows[i%len(flows)].SetRate(float64(10+i%21) * 1e6)
		n.Run(n.Now() + 50*time.Millisecond)
	}
	return nsPerOp(start, updates)
}

// probeRoutePass is Switch.Process on a router-only switch with a
// 512-route FIB, cycling destinations.
func probeRoutePass() float64 {
	const routes, passes = 512, 1 << 23
	sw := dataplane.NewSwitch(0, dataplane.TofinoLike())
	r := dataplane.NewRouter(0)
	if err := sw.Install(dataplane.Program{PPM: r, Priority: dataplane.PriRouting, Modes: 1}); err != nil {
		panic(fmt.Sprintf("bench: installing router: %v", err))
	}
	for i := 0; i < routes; i++ {
		r.SetRoute(packet.HostAddr(i+1), topo.LinkID(i%8))
	}
	pkt := &packet.Packet{Src: packet.HostAddr(routes + 1), Proto: packet.ProtoUDP}
	ctx := &dataplane.Context{Pkt: pkt}
	start := time.Now()
	for i := 0; i < passes; i++ {
		pkt.Dst, pkt.TTL = packet.HostAddr(i%routes+1), 64
		ctx.InLink, ctx.OutLink = 0, -1
		sw.Process(ctx)
	}
	return nsPerOp(start, passes)
}

// probeSketch is a count-min update cycling over 4096 flow keys.
func probeSketch() float64 {
	const keys, updates = 4096, 1 << 23
	hashes := make([]uint64, keys)
	for i := range hashes {
		p := packet.Packet{Src: packet.HostAddr(i), Dst: packet.HostAddr(i % 7), Proto: packet.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
		hashes[i] = sketch.HashFlowKey(p.Key())
	}
	cm := sketch.NewCountMin(4, 2048)
	start := time.Now()
	for i := 0; i < updates; i++ {
		cm.Add(hashes[i%keys], 1)
	}
	return nsPerOp(start, updates)
}

// probePartition is the median of five 2-way partitions of the fig3x graph.
func probePartition() float64 {
	cfg, _ := experiment.Fig3Scenario("fig3x", 1, true)
	g := experiment.BuildFig3Topology(cfg).G
	var t []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		topo.Partition(g, 2)
		t = append(t, ms(time.Since(start)))
	}
	return median(t)
}

// startService starts the job manager with the given worker count behind
// the daemon's HTTP routes. stop drains it and waits for its workers.
func startService(workers int) (handler http.Handler, stop func()) {
	m := serve.NewManager(serve.Config{Workers: workers})
	return serve.NewServer(m), func() { m.Close(10 * time.Second) }
}

// directRun is what a mix job must return: the text of the same scenario
// run straight through the experiment package, with no service in between.
func directRun(j mixJob) string {
	cfg := experiment.Figure3Config{
		Seed:        j.Seed,
		Duration:    time.Duration(j.DurationSec * float64(time.Second)),
		AttackStart: time.Duration(j.AttackStartSec * float64(time.Second)),
		BotRateBps:  j.BotRateBps,
		ScoutEvery:  time.Duration(j.ScoutEverySec * float64(time.Second)),
		Users:       j.Users, Bots: j.Bots, Servers: j.Servers,
		Defense: experiment.DefenseNone,
	}
	if j.Defense == "fastflex" {
		cfg.Defense = experiment.DefenseFastFlex
	}
	if j.Regions > 0 {
		cfg.LargeRegions, cfg.RegionSize = j.Regions, j.RegionSize
	}
	return experiment.Figure3(cfg).String()
}
