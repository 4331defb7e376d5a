package experiment

import (
	"fmt"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/booster"
	"fastflex/internal/core"
	"fastflex/internal/dataplane"
	"fastflex/internal/metrics"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Figure1dScale reproduces the dynamic-scaling step of Figure 1(d): a
// volumetric attack exceeds the defenses provisioned at placement time
// (no heavy-hitter detector deployed), so FastFlex repurposes the ingress
// switches at runtime — state out, fast reroute around the blackout,
// install the HashPipe + rely on the mode-gated droppers — and the attack
// dies. The measured series shows user goodput before the attack, during
// the unprotected window, and after scaling.
func Figure1dScale() *Result {
	res := &Result{Name: "Figure 1(d): dynamic scaling at runtime"}

	f := topo.NewFigure2()
	users := f.AttachUsers(4)
	bots := f.AttachBots(6)
	servers := f.AttachServers(4)
	var protected []packet.Addr
	for _, s := range servers {
		protected = append(protected, packet.HostAddr(int(s)))
	}
	cfg := core.Config{
		Protected:          protected,
		DisableObfuscation: true, // leave stages free for the scaled-in HashPipe
	}
	cfg.Net = netsim.DefaultConfig()
	fab, err := core.New(f.G, cfg)
	if err != nil {
		panic(err)
	}
	n := fab.Net

	var srcs []*netsim.AIMDSource
	for i, u := range users {
		src := netsim.NewAIMDSource(n, u, protected[i%len(protected)], uint16(6000+i), 80, 1200)
		src.SetMaxRate(5e6)
		src.Start()
		srcs = append(srcs, src)
	}
	goodput := func() uint64 {
		var total uint64
		for _, s := range srcs {
			total += s.AckedBytes()
		}
		return total
	}
	sampler := metrics.RateSampler(n.Eng, n.Owner(netsim.SiteSampler), "user goodput (dynamic scaling)", time.Second, goodput)

	// The volumetric flood starts at 10 s. The fabric has no heavy-hitter
	// detector installed (it was not in the placement plan), and the
	// UDP elephants do not match the LFA detector's low-rate profile —
	// the provisioned defenses are blind to this attack.
	vol := attack.NewVolumetric(n, bots, protected[0], 40e6)
	n.Eng.ScheduleRank(10*time.Second, n.Owner(netsim.SiteScript).Next(), vol.Start)

	// At 25 s the operator (or an automated trigger watching victim-edge
	// loads) scales out: every ingress switch is repurposed in sequence to
	// add a HashPipe heavy-hitter detector wired into the DDoS mode.
	scaled := 0
	for i, in := range f.Ingresses {
		in := in
		at := 25*time.Second + time.Duration(i)*3*time.Second // rolling upgrade
		n.Eng.ScheduleRank(at, n.Owner(netsim.SiteScript).Next(), func() {
			err := fab.ScaleOut(in, 2*time.Second, func(sw *dataplane.Switch) error {
				hh := booster.NewHeavyHitter(in, booster.HHConfig{
					Epoch: 500 * time.Millisecond, ThresholdPkts: 1000,
				})
				hh.Alarm = func(ctx *dataplane.Context, a booster.Alarm) {
					ctrl := fab.Controllers[in]
					if ctrl == nil {
						return
					}
					if a.Active {
						ctrl.RequestActivate(ctx, booster.ModeDDoS, 1)
					} else {
						ctrl.RequestClear(ctx, booster.ModeDDoS, 1)
					}
				}
				fab.HeavyHit[in] = hh
				return sw.Install(dataplane.Program{
					PPM: hh, Priority: dataplane.PriDetect + 1, Modes: 1,
				})
			}, func(err error) {
				if err == nil {
					scaled++
				}
			})
			if err != nil {
				panic(err)
			}
		})
	}

	n.Run(60 * time.Second)
	sampler.Stop()
	res.Workload(n.EventsFired(), n.PacketsProcessed())

	stable := sampler.S.MeanBetween(4*time.Second, 10*time.Second)
	norm := sampler.S.Normalize(stable)
	norm.Name = "normalized user goodput (dynamic scaling)"
	pre := norm.MeanBetween(4*time.Second, 10*time.Second)
	unprotected := norm.MeanBetween(12*time.Second, 25*time.Second)
	after := norm.MeanBetween(45*time.Second, 60*time.Second)

	var dropped uint64
	//ffvet:ok summing counters is order-independent
	for _, d := range fab.Droppers {
		dropped += d.DroppedHigh
	}
	tb := &metrics.Table{Header: []string{"phase", "window", "normalized goodput"}}
	tb.AddRow("provisioned defenses only", "4–10s", fmt.Sprintf("%.2f", pre))
	tb.AddRow("attack, defense blind", "12–25s", fmt.Sprintf("%.2f", unprotected))
	tb.AddRow("after runtime scale-out", "45–60s", fmt.Sprintf("%.2f", after))
	res.Table = tb
	res.Series = []*metrics.Series{norm}
	res.Note("%d of %d ingresses repurposed (rolling, 2s blackout each, fast-reroute masked); %d attack packets dropped after scaling",
		scaled, len(f.Ingresses), dropped)
	res.Note("pre=%.2f unprotected=%.2f scaled=%.2f", pre, unprotected, after)
	return res
}
