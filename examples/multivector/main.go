// Multi-vector: a link-flooding attack and a volumetric DDoS launched
// simultaneously in different parts of the network. FastFlex activates
// different, co-existing modes per region — the multimode property of §2
// and Figure 2: LFA mitigation (reroute + mitigate) where the Crossfire
// hits, ModeDDoS where the flood hits, both at once.
package main

import (
	"fmt"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/booster"
	"fastflex/internal/core"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

func main() {
	f := topo.NewFigure2()
	users := f.AttachUsers(4)
	lfaBots := f.AttachBots(40)
	ddosBots := f.AttachBots(6)
	servers := f.AttachServers(8)
	var protected []packet.Addr
	for _, s := range servers {
		protected = append(protected, packet.HostAddr(int(s)))
	}

	cfg := core.Config{
		Protected:          protected,
		EnableHeavyHitter:  true,
		DisableObfuscation: true, // stage budget for the HashPipe
		HH:                 booster.HHConfig{Epoch: 500 * time.Millisecond, ThresholdPkts: 1000},
	}
	cfg.Net = netsim.DefaultConfig()
	fab, err := core.New(f.G, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(fab.Report())

	for i, u := range users {
		src := netsim.NewAIMDSource(fab.Net, u, protected[i%len(protected)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
	}

	// Vector 1: Crossfire LFA from t = 5s.
	lfa := attack.NewCrossfire(fab.Net, attack.CrossfireConfig{
		Bots: lfaBots, Servers: protected,
		BotRateBps: 1.5e6, FlowsPerBot: 2, Start: 5 * time.Second,
	})
	lfa.Launch()
	// Vector 2: volumetric flood at a different server from t = 8s.
	vol := attack.NewVolumetric(fab.Net, ddosBots, protected[7], 30e6)
	fab.Net.Eng.ScheduleRank(8*time.Second, fab.Net.Owner(netsim.SiteScript).Next(), vol.Start)

	report := func(at time.Duration) {
		fab.Run(at)
		m := fab.Net.Switch(f.CoreA).Modes()
		fmt.Printf("t=%-4v coreA modes: reroute=%v mitigate=%v ddos=%v\n",
			at, m.Has(booster.ModeReroute), m.Has(booster.ModeMitigate), m.Has(booster.ModeDDoS))
	}
	for _, at := range []time.Duration{4 * time.Second, 7 * time.Second, 12 * time.Second, 20 * time.Second} {
		report(at)
	}

	m := fab.Net.Switch(f.CoreA).Modes()
	if m.Has(booster.ModeMitigate) && m.Has(booster.ModeDDoS) {
		fmt.Println("\nboth defense modes are active simultaneously: the mode SET abstraction")
		fmt.Println("lets mixed-vector attacks trigger co-existing defenses (paper §2).")
	}
	var dropped uint64
	for _, d := range fab.Droppers {
		dropped += d.DroppedHigh
	}
	fmt.Printf("total highly-suspicious packets dropped across both vectors: %d\n", dropped)
}
