package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/core"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// TestResetRearmOrderInvisible pins the reset contract's one remaining
// rule, "owner keys replay": every coordinator event is ranked by its
// site's owner, so the order a reset re-arms the surviving tickers in is
// irrelevant. A fabric reset with the heartbeat re-armed before the
// utilization ticker — the reverse of the build order — runs a defended
// Figure-2 attack byte-identically to a fresh build at the same seed. The
// utilization window is set to the heartbeat's 100 ms so that both tickers
// are due at every shared instant from their first, where only their ranks
// can order them: the heartbeat (the lower site key) must fire first in
// both runs, which an insertion-ordered engine would not do after the
// reversed re-arm.
func TestResetRearmOrderInvisible(t *testing.T) {
	const seed = 5
	f := topo.NewFigure2()
	users, bots, servers := f.AttachUsers(4), f.AttachBots(20), f.AttachServers(4)
	var srv []packet.Addr
	for _, s := range servers {
		srv = append(srv, packet.HostAddr(int(s)))
	}
	build := func(seed int64) *core.Fabric {
		cfg := core.Config{Protected: srv, Net: netsim.DefaultConfig()}
		cfg.Net.Seed = seed
		cfg.Net.UtilWindow = 100 * time.Millisecond
		fab, err := core.New(f.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	run := func(fab *core.Fabric) string {
		n := fab.Net
		var srcs []*netsim.AIMDSource
		for i, u := range users {
			s := netsim.NewAIMDSource(n, u, srv[i%len(srv)], uint16(6000+i), 80, 1200)
			s.SetMaxRate(5e6)
			s.Start()
			srcs = append(srcs, s)
		}
		attack.NewCrossfire(n, attack.CrossfireConfig{
			Bots: bots, Servers: srv, BotRateBps: 1.5e6, FlowsPerBot: 2, TargetLinks: 1,
			Rolling: true, ScoutEvery: 2 * time.Second, Start: time.Second,
		}).Launch()
		// Both tickers are due at 100 ms; step the coordinator once and
		// see which fired: only the heartbeat runs switch pipelines.
		fab.Run(99 * time.Millisecond)
		passes := n.PacketsProcessed()
		n.Eng.Step()
		if n.Eng.Now() != 100*time.Millisecond || n.PacketsProcessed() == passes {
			t.Fatalf("at %v the utilization ticker fired before the heartbeat", n.Eng.Now())
		}
		fab.Run(5 * time.Second)
		if len(fab.ModeEvents()) == 0 {
			t.Fatal("vacuous: no mode change")
		}
		sig := fmt.Sprint(fab.ModeEvents(), n.EventsFired(), n.PacketsProcessed(), n.Delivered(), n.DropsQueue(), n.DropsPipeline())
		for _, s := range srcs {
			sig += fmt.Sprint(" ", s.AckedBytes())
		}
		return sig
	}

	want := run(build(seed))
	fab := build(seed + 1)
	run(fab)
	if err := fab.Reset(seed); err != nil {
		t.Fatal(err)
	}
	// Reset re-armed the utilization ticker, then the heartbeat; re-arm the
	// utilization ticker again so the heartbeat's first event is the older.
	util := netsim.UtilTicker(fab.Net)
	util.Stop()
	util.Rearm()
	if got := run(fab); got != want {
		t.Fatalf("heartbeat re-armed before the utilization ticker diverges from a fresh build:\n got %s\nwant %s", got, want)
	}
}
