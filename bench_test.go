// Benchmarks regenerating every table and figure in the paper's evaluation
// plus the DESIGN.md ablations. Each benchmark runs the corresponding
// experiment and reports its headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The underlying experiment code is in
// internal/experiment; cmd/ffbench prints the full tables.
package fastflex_test

import (
	"testing"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/experiment"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// benchDuration keeps the per-iteration simulations tractable; the shapes
// are stable from ~60 simulated seconds on (cmd/ffbench runs the full 120s).
const benchDuration = 60 * time.Second

func fig3(b *testing.B, d experiment.Defense, mutate func(*experiment.Figure3Config)) {
	b.ReportAllocs()
	var last *experiment.Figure3Result
	for i := 0; i < b.N; i++ {
		cfg := experiment.Figure3Config{Defense: d, Duration: benchDuration}
		if mutate != nil {
			mutate(&cfg)
		}
		last = experiment.Figure3(cfg)
	}
	// Custom metrics are per-benchmark values, not per-iteration samples:
	// report once after the loop (same-seed runs are identical anyway, and
	// calling ReportMetric inside the loop would just overwrite b.N times
	// while bloating the timed region).
	b.ReportMetric(last.AttackMean, "attack-mean")
	b.ReportMetric(last.FractionDegraded, "degraded-frac")
	b.ReportMetric(float64(last.Rolls), "rolls")
}

// BenchmarkFigure3FastFlex regenerates the FastFlex arm of Figure 3.
func BenchmarkFigure3FastFlex(b *testing.B) { fig3(b, experiment.DefenseFastFlex, nil) }

// BenchmarkFigure3Baseline regenerates the baseline (30s centralized TE)
// arm of Figure 3.
func BenchmarkFigure3Baseline(b *testing.B) { fig3(b, experiment.DefenseBaseline, nil) }

// BenchmarkFigure3Undefended regenerates the undefended floor.
func BenchmarkFigure3Undefended(b *testing.B) { fig3(b, experiment.DefenseNone, nil) }

// BenchmarkTable1Analyzer regenerates the Figure-1(a) module resource table.
func BenchmarkTable1Analyzer(b *testing.B) {
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		r := experiment.Table1Analyzer()
		rows = len(r.Table.Rows)
	}
	b.ReportMetric(float64(rows), "modules")
}

// BenchmarkFigure1Merge regenerates the Figure-1(b) merged dataflow graph.
func BenchmarkFigure1Merge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.Figure1Merge()
	}
}

// BenchmarkFigure1Place regenerates the Figure-1(c) placement.
func BenchmarkFigure1Place(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.Figure1Place()
	}
}

// BenchmarkFigure2Modes regenerates the Figure-2 multimode progression.
func BenchmarkFigure2Modes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.Figure2Modes()
	}
}

// BenchmarkFigure1dScale regenerates the Figure-1(d) dynamic-scaling step.
func BenchmarkFigure1dScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.Figure1dScale()
	}
}

// BenchmarkAblationModeLatency regenerates ablation A1.
func BenchmarkAblationModeLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationModeLatency()
	}
}

// BenchmarkAblationSharing regenerates ablation A2.
func BenchmarkAblationSharing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationSharing()
	}
}

// BenchmarkAblationPlacement regenerates ablation A3.
func BenchmarkAblationPlacement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationPlacement()
	}
}

// BenchmarkAblationRepurpose regenerates ablation A4.
func BenchmarkAblationRepurpose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationRepurpose()
	}
}

// BenchmarkAblationFEC regenerates ablation A5.
func BenchmarkAblationFEC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationFEC(42)
	}
}

// BenchmarkAblationPinning regenerates ablation A6 (pin-normal-flows vs
// reroute-all, the §4.2 step-3 design choice).
func BenchmarkAblationPinning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationPinning(experiment.RunOpts{Seed: 1})
	}
}

// BenchmarkAblationStability regenerates ablation A7 (pulsing attacker vs
// hysteresis).
func BenchmarkAblationStability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.AblationStability(1)
	}
}

// BenchmarkEventsimStep measures the simulator's innermost loop — schedule
// one event, pop and fire it — which the concrete-typed heap and the Event
// free list keep allocation-free (0 allocs/op is asserted by
// eventsim's TestScheduleSteadyStateZeroAlloc).
func BenchmarkEventsimStep(b *testing.B) {
	eng := eventsim.New(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		eng.After(time.Duration(i)*time.Microsecond, fn)
	}
	for eng.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Microsecond, fn)
		eng.Step()
	}
}

// BenchmarkLinkEnqueue measures one full packet lifetime on the netsim hot
// path: pooled allocation, host send, closed-form link admission (one
// delivery event per hop), pipeline traversal at the switches with the
// egress enqueue inline, delivery, recycling. Zero steady-state allocations
// are asserted by netsim's TestForwardSteadyStateZeroAlloc.
func BenchmarkLinkEnqueue(b *testing.B) {
	g := topo.NewFigure2()
	users := g.AttachUsers(1)
	servers := g.AttachServers(1)
	n := netsim.New(g.G, netsim.DefaultConfig())
	for _, sw := range g.G.Switches() {
		r := n.Router(sw)
		for _, h := range g.G.Hosts() {
			if p, ok := g.G.ShortestPath(sw, h, nil); ok {
				r.SetRoute(packet.HostAddr(int(h)), p.Links[0])
			}
		}
	}
	dst := packet.HostAddr(int(servers[0]))
	send := func() {
		p := n.NewPacket()
		p.Src, p.Dst, p.TTL = packet.HostAddr(int(users[0])), dst, 64
		p.Proto, p.SrcPort, p.DstPort = packet.ProtoUDP, 1, 2
		p.PayloadLen = 100
		n.SendFromHost(users[0], p)
	}
	// Warm the pools and rings before timing.
	for i := 0; i < 64; i++ {
		send()
		n.Run(n.Now() + 10*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		n.Run(n.Now() + 10*time.Millisecond)
	}
}
