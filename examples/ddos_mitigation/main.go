// DDoS mitigation: a volumetric UDP flood against a server, detected by the
// HashPipe heavy-hitter booster and killed by the dropper via the ModeDDoS
// defense mode — a different booster set than the LFA case study, running
// on the same multimode architecture.
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
	bots := f.AttachBots(8)
	servers := f.AttachServers(2)
	var protected []packet.Addr
	for _, s := range servers {
		protected = append(protected, packet.HostAddr(int(s)))
	}

	cfg := core.Config{
		Protected:         protected,
		EnableHeavyHitter: true,
		// The HashPipe needs stages; give them up from obfuscation,
		// which this scenario doesn't use.
		DisableObfuscation: true,
		HH:                 booster.HHConfig{Epoch: 500 * time.Millisecond, ThresholdPkts: 1000},
	}
	cfg.Net = netsim.DefaultConfig()
	fab, err := core.New(f.G, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(fab.Report())

	var srcs []*netsim.AIMDSource
	for i, u := range users {
		src := netsim.NewAIMDSource(fab.Net, u, protected[i%2], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
		srcs = append(srcs, src)
	}

	// 8 bots × 30 Mbps of UDP at one server from t = 5s.
	vol := attack.NewVolumetric(fab.Net, bots, protected[0], 30e6)
	fab.Net.Eng.ScheduleRank(5*time.Second, fab.Net.Owner(netsim.SiteScript).Next(), vol.Start)
	fab.Net.Eng.ScheduleRank(20*time.Second, fab.Net.Owner(netsim.SiteScript).Next(), vol.Stop)

	report := func(at time.Duration) {
		fab.Run(at)
		flagged := false
		var banned uint64
		for _, hh := range fab.HeavyHit {
			if hh.Active() {
				flagged = true
			}
			banned += hh.Flagged
		}
		var dropped uint64
		for _, d := range fab.Droppers {
			dropped += d.DroppedHigh
		}
		var good uint64
		for _, s := range srcs {
			good += s.AckedBytes()
		}
		fmt.Printf("t=%-4v volumetric=%-5v ddos-mode@coreA=%-5v flows banned=%-3d dropped=%-7d user goodput=%.1f MB\n",
			at, flagged, fab.ModeActiveAt(f.CoreA, booster.ModeDDoS), banned, dropped, float64(good)/1e6)
	}
	for _, at := range []time.Duration{4 * time.Second, 7 * time.Second, 12 * time.Second,
		20 * time.Second, 30 * time.Second} {
		report(at)
	}
	fmt.Println("\nheavy hitters are tagged in the data plane and dropped at the first switch")
	fmt.Println("that sees them; the mode clears automatically once the flood stops.")
}
