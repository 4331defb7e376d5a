// End-to-end integration tests exercising the public workflow the README
// documents: build a topology, deploy a fabric, run attacks, observe the
// multimode data plane respond. These are the same paths the examples use.
package fastflex_test

import (
	"testing"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/booster"
	"fastflex/internal/core"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// TestQuickstartFlow mirrors examples/quickstart as an assertion: deploy,
// attack, detect, mitigate — and user goodput keeps flowing.
func TestQuickstartFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	f := topo.NewFigure2()
	users := f.AttachUsers(4)
	bots := f.AttachBots(40)
	servers := f.AttachServers(8)
	var protected []packet.Addr
	for _, s := range servers {
		protected = append(protected, packet.HostAddr(int(s)))
	}
	cfg := core.Config{Protected: protected}
	cfg.Net = netsim.DefaultConfig()
	fab, err := core.New(f.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*netsim.AIMDSource
	for i, u := range users {
		src := netsim.NewAIMDSource(fab.Net, u, protected[i%len(protected)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
		srcs = append(srcs, src)
	}
	atk := attack.NewCrossfire(fab.Net, attack.CrossfireConfig{
		Bots: bots, Servers: protected, BotRateBps: 1.5e6, FlowsPerBot: 2,
		Start: 5 * time.Second,
	})
	atk.Launch()

	fab.Run(4 * time.Second)
	if fab.AttackDetected() {
		t.Fatal("false positive before the attack")
	}
	// Let detection + mitigation settle, then measure the steady state.
	fab.Run(10 * time.Second)
	if !fab.AttackDetected() {
		t.Fatal("attack not detected")
	}
	if !fab.ModeActiveAt(f.CoreA, booster.ModeMitigate) {
		t.Fatal("mitigation mode not active network-wide")
	}
	pre := srcs[0].AckedBytes()
	fab.Run(25 * time.Second)
	// With mitigation in steady state the user keeps nearly its full
	// 5 Mbps despite the ongoing attack.
	during := srcs[0].AckedBytes() - pre
	rate := float64(during) * 8 / 15
	if rate < 4e6 {
		t.Fatalf("user rate under mitigated attack = %.1f Mbps, want ≥4", rate/1e6)
	}
	// Mitigation evidence across the fabric.
	var rerouted, dropped, fabricated uint64
	for _, rr := range fab.Reroutes {
		rerouted += rr.Rerouted
	}
	for _, d := range fab.Droppers {
		dropped += d.DroppedHigh
	}
	for _, o := range fab.Obfuscators {
		fabricated += o.Fabricated
	}
	if rerouted == 0 || dropped == 0 {
		t.Fatalf("mitigation not engaged: rerouted=%d dropped=%d", rerouted, dropped)
	}
}

// TestMultiVectorFlow mirrors examples/multivector: LFA and volumetric
// attacks at once, co-existing modes.
func TestMultiVectorFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	f := topo.NewFigure2()
	users := f.AttachUsers(2)
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
		DisableObfuscation: true,
		HH:                 booster.HHConfig{Epoch: 500 * time.Millisecond, ThresholdPkts: 1000},
	}
	cfg.Net = netsim.DefaultConfig()
	fab, err := core.New(f.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range users {
		src := netsim.NewAIMDSource(fab.Net, u, protected[i%len(protected)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
	}
	lfa := attack.NewCrossfire(fab.Net, attack.CrossfireConfig{
		Bots: lfaBots, Servers: protected, BotRateBps: 1.5e6, FlowsPerBot: 2,
		Start: 3 * time.Second,
	})
	lfa.Launch()
	vol := attack.NewVolumetric(fab.Net, ddosBots, protected[7], 30e6)
	fab.Net.Eng.ScheduleRank(6*time.Second, fab.Net.Owner(netsim.SiteScript).Next(), vol.Start)

	fab.Run(15 * time.Second)
	m := fab.Net.Switch(f.CoreA).Modes()
	if !m.Has(booster.ModeMitigate) || !m.Has(booster.ModeDDoS) {
		t.Fatalf("modes not co-existing: mitigate=%v ddos=%v",
			m.Has(booster.ModeMitigate), m.Has(booster.ModeDDoS))
	}
}
