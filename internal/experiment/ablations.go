package experiment

import (
	"fmt"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/control"
	"fastflex/internal/core"
	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/metrics"
	"fastflex/internal/mode"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/place"
	"fastflex/internal/ppm"
	"fastflex/internal/state"
	"fastflex/internal/topo"
)

// AblationModeLatency (A1) measures the alarm→network-wide-activation
// latency of the distributed mode-change protocol across topology
// diameters, against the baseline's controller cycle.
func AblationModeLatency() *Result {
	res := &Result{Name: "A1: mode-change latency vs topology diameter"}
	tb := &metrics.Table{Header: []string{"switches", "diameter", "dataplane latency", "controller cycle (baseline)"}}
	for _, nSw := range []int{3, 5, 9, 13} {
		g := topo.NewLinear(nSw)
		n := netsim.New(g, netsim.DefaultConfig())
		ctrls := make([]*mode.Controller, nSw)
		activated := make([]time.Duration, nSw)
		for i := 0; i < nSw; i++ {
			i := i
			sw := n.Switch(topo.NodeID(i))
			c := mode.NewController(topo.NodeID(i), sw.SetMode, sw.SeenProbe, mode.Config{Region: 1})
			c.OnChange = func(m dataplane.ModeID, active bool, now time.Duration) {
				if active && activated[i] == 0 {
					activated[i] = now
				}
			}
			if err := sw.Install(dataplane.Program{PPM: c, Priority: dataplane.PriControl, Modes: 1}); err != nil {
				panic(err)
			}
			ctrls[i] = c
		}
		n.Eng.Schedule(10*time.Millisecond, func() {
			ctx := &dataplane.Context{Now: n.Now(), Switch: 0, InLink: -1,
				Pkt: &packet.Packet{Proto: packet.ProtoTCP}, OutLink: -1}
			ctrls[0].RequestActivate(ctx, 3, 1)
			links := n.SwitchLinks(0)
			for _, em := range ctx.Emissions() {
				// As netsim floods: the last link takes the packet itself.
				for i, lid := range links {
					pkt := em.Pkt
					if i < len(links)-1 {
						pkt = pkt.Clone()
					}
					n.Enqueue(lid, pkt)
				}
			}
		})
		n.Run(2 * time.Second)
		res.Workload(n.EventsFired(), n.PacketsProcessed())
		var worst time.Duration
		for i := range activated {
			if activated[i] == 0 {
				worst = -1
				break
			}
			if d := activated[i] - 10*time.Millisecond; d > worst {
				worst = d
			}
		}
		tb.AddRow(fmt.Sprintf("%d", nSw), fmt.Sprintf("%d", nSw-1),
			fmt.Sprintf("%v", worst), "15s (half of 30s period)")
	}
	res.Table = tb
	res.Note("dataplane mode changes complete in single-digit milliseconds; the baseline's expected reaction time is ~15s — four orders of magnitude slower")
	return res
}

// AblationSharing (A2) quantifies what PPM sharing buys: the per-switch
// footprint of the full booster set and how many co-location clusters are
// needed at constrained budgets.
func AblationSharing() *Result {
	res := &Result{Name: "A2: PPM sharing vs no sharing"}
	tb := &metrics.Table{Header: []string{"budget", "sharing", "modules", "stages", "SRAM(KB)", "clusters", "cut-weight"}}
	budgets := []struct {
		name string
		res  dataplane.Resources
	}{
		{"full switch", dataplane.TofinoLike()},
		{"half switch", dataplane.Resources{Stages: 8, SRAMKB: 8 * 1536, TCAM: 8 * 256, ALUs: 8 * 4}},
		{"quarter switch", dataplane.Resources{Stages: 4, SRAMKB: 4 * 1536, TCAM: 4 * 256, ALUs: 4 * 4}},
	}
	for _, b := range budgets {
		for _, share := range []bool{false, true} {
			merged, err := ppm.Merge(ppm.StandardBoosters(), share)
			if err != nil {
				panic(err)
			}
			clusters := ppm.Clusterize(merged, b.res)
			cut := ppm.CutWeight(merged, clusters)
			t := merged.Total()
			tb.AddRow(b.name, fmt.Sprintf("%v", share),
				fmt.Sprintf("%d", len(merged.Modules)),
				fmt.Sprintf("%d", t.Stages), fmt.Sprintf("%.0f", t.SRAMKB),
				fmt.Sprintf("%d", len(clusters)), fmt.Sprintf("%.0f", cut))
		}
	}
	res.Table = tb
	res.Note("sharing shrinks the module count and lets the same booster set pack into fewer, tighter clusters")
	return res
}

// AblationPlacement (A3) compares the paper's placement policy (pervasive
// detection, mitigation downstream) against traditional alternatives.
func AblationPlacement() *Result {
	res := &Result{Name: "A3: placement policy comparison"}
	tb := &metrics.Table{Header: []string{"policy", "coverage", "mitigation distance", "detector instances"}}
	merged, err := ppm.Merge(ppm.StandardBoosters(), true)
	if err != nil {
		panic(err)
	}
	f := topo.NewFigure2()
	users := f.AttachUsers(4)
	servers := f.AttachServers(2)
	var paths []topo.Path
	for _, u := range users {
		for _, s := range servers {
			if p, ok := f.G.ShortestPath(u, s, nil); ok {
				paths = append(paths, p)
			}
		}
	}
	policies := []struct {
		name string
		pol  place.Policy
	}{
		{"pervasive + downstream (FastFlex)", place.Policy{}},
		{"single chokepoint detector", place.Policy{SingleDetector: true}},
		{"mitigation anywhere", place.Policy{MitigationAnywhere: true}},
	}
	for _, pc := range policies {
		p, err := place.Schedule(place.Input{
			G: f.G, Merged: merged,
			Budget: place.UniformBudget(f.G, dataplane.TofinoLike()),
			Paths:  paths, Policy: pc.pol,
		})
		if err != nil {
			panic(err)
		}
		detInstances := 0
		for mi, m := range merged.Modules {
			if m.Role == ppm.RoleDetection {
				detInstances += len(p.ByModule[mi])
			}
		}
		tb.AddRow(pc.name, fmt.Sprintf("%.0f%%", 100*p.DetectorCoverage),
			fmt.Sprintf("%.2f hops", p.MeanMitigationDistance),
			fmt.Sprintf("%d", detInstances))
	}
	res.Table = tb
	return res
}

// AblationRepurpose (A4) sweeps the switch-reconfiguration latency with and
// without neighbor fast reroute, measuring traffic survival during the
// blackout.
func AblationRepurpose() *Result {
	res := &Result{Name: "A4: repurposing disruption vs fast reroute"}
	tb := &metrics.Table{Header: []string{"latency", "fast-reroute", "delivery during blackout", "blackout drops"}}
	for _, lat := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 5 * time.Second} {
		for _, frr := range []bool{false, true} {
			f := topo.NewFigure2()
			users := f.AttachUsers(1)
			servers := f.AttachServers(1)
			n := netsim.New(f.G, netsim.DefaultConfig())
			control.NewTEController(n, control.Config{}).InstallStatic()
			state.RouterRoutesForSwitches(n)
			src := netsim.NewCBRSource(n, users[0], packet.HostAddr(int(servers[0])),
				1, 80, packet.ProtoUDP, 1000, 5e6)
			src.Start()
			n.Run(time.Second)
			before := n.Host(servers[0]).TotalRecvBytes()
			rep := state.NewRepurposer(n)
			if err := rep.Repurpose(f.CoreA, state.RepurposeConfig{Latency: lat, FastReroute: frr},
				func(*dataplane.Switch) error { return nil }, nil); err != nil {
				panic(err)
			}
			n.Run(time.Second + lat)
			res.Workload(n.EventsFired(), n.PacketsProcessed())
			during := n.Host(servers[0]).TotalRecvBytes() - before
			offered := 5e6 / 8 * lat.Seconds()
			tb.AddRow(fmt.Sprintf("%v", lat), fmt.Sprintf("%v", frr),
				fmt.Sprintf("%.0f%%", 100*float64(during)/offered),
				fmt.Sprintf("%d", n.DropsDown()))
		}
	}
	res.Table = tb
	res.Note("fast reroute masks seconds-long reconfigurations almost completely; without it, the blackout drops everything on the affected paths")
	return res
}

// AblationFEC (A5) sweeps random chunk loss against the XOR-parity FEC
// used for piggybacked state transfer, drawing its loss trials from a
// seeded eventsim engine — the same substrate every other experiment's
// randomness flows from.
func AblationFEC(seed int64) *Result {
	res := &Result{Name: "A5: FEC for state transfer under loss"}
	tb := &metrics.Table{Header: []string{"loss", "parity", "transfers recovered", "overhead"}}
	const trials = 400
	rng := eventsim.New(seed).RNG()
	blob := make([]byte, 4096)
	rng.Read(blob)
	for _, loss := range []float64{0, 0.02, 0.05, 0.10} {
		for _, parity := range []bool{false, true} {
			cfg := state.FECConfig{ChunkSize: 256, GroupSize: 4, Parity: parity}
			probes, err := state.Encode(1, blob, cfg)
			if err != nil {
				panic(err)
			}
			dataChunks := 0
			for _, pi := range probes {
				if !pi.FECParity {
					dataChunks++
				}
			}
			ok := 0
			for t := 0; t < trials; t++ {
				ra := state.NewReassembler(cfg)
				for _, pi := range probes {
					if rng.Float64() < loss {
						continue
					}
					ra.Add(pi)
				}
				if ra.Complete() {
					ok++
				}
			}
			tb.AddRow(fmt.Sprintf("%.0f%%", loss*100), fmt.Sprintf("%v", parity),
				fmt.Sprintf("%.1f%%", 100*float64(ok)/trials),
				fmt.Sprintf("%.0f%%", 100*float64(len(probes)-dataChunks)/float64(dataChunks)))
		}
	}
	res.Table = tb
	res.Note("one parity chunk per 4 data chunks (25%% overhead) recovers nearly all transfers at 2–5%% loss, where parity-less transfers mostly fail")
	return res
}

// AblationPinning (A6) compares the §4.2 pin-normal-flows policy against
// rerouting everything, using shortened Figure-3 runs. Short halves the
// horizon and starts the attack earlier (same policies and shape checks);
// the output is invariant in Shards for every K >= 1.
func AblationPinning(o RunOpts) *Result {
	res := &Result{Name: "A6: pinning normal flows vs rerouting all"}
	tb := &metrics.Table{Header: []string{"policy", "attack-window goodput", "degraded<80%"}}
	for _, all := range []bool{false, true} {
		cfg := Figure3Config{
			Defense: DefenseFastFlex, Duration: 60 * time.Second,
			RerouteAllOverride: all, Seed: o.Seed, Shards: o.Shards, Fabrics: o.Fabrics,
		}
		if o.Short {
			cfg.Duration = 30 * time.Second
			cfg.AttackStart = 10 * time.Second
			cfg.ScoutEvery = 5 * time.Second
		}
		r := Figure3(cfg)
		name := "pin normal flows (FastFlex)"
		metric := "attack_mean_pin"
		if all {
			name = "reroute all flows"
			metric = "attack_mean_reroute_all"
		}
		tb.AddRow(name, fmt.Sprintf("%.2f", r.AttackMean), fmt.Sprintf("%.2f", r.FractionDegraded))
		res.Metric(metric, r.AttackMean)
		res.Workload(r.Events, r.Packets)
	}
	res.Table = tb
	res.Note("pinning keeps normal flows on their short TE paths; rerouting everything drags them onto longer detours shared with attack traffic")
	return res
}

// AblationStability (A7) pits a pulsing attacker (trying to induce mode
// flapping) against the protocol's hysteresis, comparing against a
// deliberately destabilized configuration.
func AblationStability(seed int64) *Result {
	res := &Result{Name: "A7: stability under pulsing attacks"}
	tb := &metrics.Table{Header: []string{"hysteresis", "mode transitions", "suppressed", "goodput"}}
	for _, stable := range []bool{true, false} {
		f := topo.NewFigure2()
		users := f.AttachUsers(4)
		bots := f.AttachBots(40)
		servers := f.AttachServers(8)
		var srvAddr []packet.Addr
		for _, s := range servers {
			srvAddr = append(srvAddr, packet.HostAddr(int(s)))
		}
		cfg := core.Config{Protected: srvAddr}
		cfg.Net = netsim.DefaultConfig()
		cfg.Net.Seed = seed
		if !stable {
			cfg.Mode = mode.Config{MinDwell: time.Millisecond, ChangeBudget: 1 << 20,
				BudgetWindow: time.Hour, SoftTTL: 600 * time.Millisecond}
			cfg.LFA.ClearAfter = 200 * time.Millisecond
			cfg.LFA.ReassertEvery = 100 * time.Millisecond
			cfg.LFA.StabilityWindow = -1 // no clear backoff
		}
		fab, err := core.New(f.G, cfg)
		if err != nil {
			panic(err)
		}
		n := fab.Net
		var srcs []*netsim.AIMDSource
		for i, u := range users {
			src := netsim.NewAIMDSource(n, u, srvAddr[i%len(srvAddr)], uint16(6000+i), 80, 1200)
			src.SetMaxRate(5e6)
			src.Start()
			srcs = append(srcs, src)
		}
		// Pulse 3s on / 1.5s off: the off-gap is shorter than the
		// detector's clear hysteresis, so a stable defense should hold
		// its modes through the gaps instead of flapping.
		base := attack.NewCrossfire(n, attack.CrossfireConfig{
			Bots: bots, Servers: srvAddr, BotRateBps: 1.5e6, FlowsPerBot: 2,
		})
		pulse := attack.NewPulsing(n, crossfireOnOff{base}, 3*time.Second, 1500*time.Millisecond)
		n.Eng.Schedule(5*time.Second, pulse.Start)
		fab.Run(60 * time.Second)
		res.Workload(n.EventsFired(), n.PacketsProcessed())
		var suppressed uint64
		//ffvet:ok summing counters is order-independent
		for _, c := range fab.Controllers {
			suppressed += c.Suppressed
		}
		var good uint64
		for _, s := range srcs {
			good += s.AckedBytes()
		}
		var evicted uint64
		//ffvet:ok summing counters is order-independent
		for sw := range fab.Controllers {
			evicted += fab.Net.Switch(sw).DedupEvictions()
		}
		name := "dwell+budget+TTL (FastFlex)"
		metric := "transitions_stable"
		evMetric := "dedup_evictions_stable"
		if !stable {
			name = "disabled (ablation)"
			metric = "transitions_unstable"
			evMetric = "dedup_evictions_unstable"
		}
		tb.AddRow(name, fmt.Sprintf("%d", len(fab.ModeEvents())),
			fmt.Sprintf("%d", suppressed),
			fmt.Sprintf("%.1f Mbps", float64(good)*8/60e6))
		res.Metric(metric, float64(len(fab.ModeEvents())))
		res.Metric(evMetric, float64(evicted))
	}
	res.Table = tb
	res.Note("hysteresis bounds attacker-induced mode churn; without it every pulse flips the whole network's modes")
	return res
}

// crossfireOnOff adapts Crossfire's Launch/Stop to the pulsing interface.
type crossfireOnOff struct{ a *attack.Crossfire }

func (c crossfireOnOff) Start() { c.a.Launch() }
func (c crossfireOnOff) Stop()  { c.a.Stop() }
