package booster

import (
	"testing"
	"time"

	"fastflex/internal/dataplane"
)

// BenchmarkRerouteSteer is the per-packet cost of steering a suspicious
// packet at a reroute switch that knows two paths to its destination:
// "hit" reuses the flow's live flowlet; "miss" finds the flowlet expired,
// so the packet takes a fresh BestVia decision and re-records the flowlet.
// Probes and paths never go stale within the run.
func BenchmarkRerouteSteer(b *testing.B) {
	for _, bc := range []struct {
		name    string
		flowlet time.Duration // flowlet timeout and max age
		step    time.Duration // virtual time between packets
	}{
		{"hit", time.Hour, time.Nanosecond},
		{"miss", time.Microsecond, 2 * time.Microsecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rig := newRerouteRig(RerouteConfig{ProbeEvery: time.Hour, StaleAfter: time.Hour,
				FlowletTimeout: bc.flowlet, MaxFlowletAge: bc.flowlet})
			g := rig.f.G
			detour := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
			rig.utils[rig.f.CriticalLinkA] = 0.95
			rig.utils[detour] = 0.05
			rig.feedProbe(b, g.Links[rig.f.CriticalLinkA].Reverse, 0, 1, 0)
			rig.feedProbe(b, g.Links[detour].Reverse, 0, 2, 0)
			p := botPacket(1, rig.victimAddr(), 1000)
			p.Suspicion = SuspicionLow
			ctx := mkCtx(0, p, g.LinkBetween(rig.f.IngressA, rig.f.CoreA), dataplane.ModeSet(0).With(ModeReroute))
			now := time.Millisecond
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Now, ctx.OutLink = now, rig.f.CriticalLinkA
				rig.r.Process(ctx)
				now += bc.step
			}
			b.StopTimer()
			if ctx.OutLink != detour {
				b.Fatalf("packet left on link %d, want the detour %d", ctx.OutLink, detour)
			}
		})
	}
}
