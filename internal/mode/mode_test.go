package mode

import (
	"testing"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// rig wires a controller to a fake mode register and dedup set.
type rig struct {
	c     *Controller
	modes map[dataplane.ModeID]bool
	seen  map[packet.DedupKey]bool
}

func newRig(self topo.NodeID, cfg Config) *rig {
	r := &rig{modes: map[dataplane.ModeID]bool{}, seen: map[packet.DedupKey]bool{}}
	r.c = NewController(self,
		func(m dataplane.ModeID, on bool) { r.modes[m] = on },
		func(k packet.DedupKey) bool {
			if r.seen[k] {
				return true
			}
			r.seen[k] = true
			return false
		}, cfg)
	return r
}

func ctxAt(now time.Duration, p *packet.Packet, in topo.LinkID) *dataplane.Context {
	return &dataplane.Context{Now: now, InLink: in, Pkt: p, OutLink: -1}
}

func dataPkt() *packet.Packet {
	return &packet.Packet{Src: packet.HostAddr(1), Dst: packet.HostAddr(2),
		TTL: 64, Proto: packet.ProtoTCP}
}

func modeProbe(origin topo.NodeID, seq uint32, m uint8, region uint16, clear bool) *packet.Packet {
	return &packet.Packet{
		Src: packet.RouterAddr(int(origin)), Dst: packet.RouterAddr(0xFFFE),
		TTL: 64, Proto: packet.ProtoProbe,
		Probe: &packet.ProbeInfo{
			Kind: packet.ProbeModeChange, Origin: packet.RouterAddr(int(origin)),
			Seq: seq, HopsLeft: 8, Mode: m, Region: region, Clear: clear,
		},
	}
}

func TestRequestActivateSetsLocalAndFloods(t *testing.T) {
	r := newRig(1, Config{Region: 2})
	ctx := ctxAt(time.Second, dataPkt(), 0)
	r.c.RequestActivate(ctx, 3, 2)
	if !r.modes[3] {
		t.Fatal("local mode not set")
	}
	if r.c.Activations != 1 {
		t.Fatalf("activations = %d", r.c.Activations)
	}
	ems := ctx.Emissions()
	if len(ems) != 1 || ems[0].Pkt.Probe.Kind != packet.ProbeModeChange {
		t.Fatalf("emissions = %v", ems)
	}
	if ems[0].Pkt.Probe.Mode != 3 || ems[0].Pkt.Probe.Region != 2 || ems[0].Pkt.Probe.Clear {
		t.Fatalf("probe fields wrong: %+v", ems[0].Pkt.Probe)
	}
	if at, ok := r.c.ActiveSince(3); !ok || at != time.Second {
		t.Fatalf("ActiveSince = %v %v", at, ok)
	}
}

func TestProbeAppliedAndReflooded(t *testing.T) {
	r := newRig(1, Config{Region: 2})
	ctx := ctxAt(0, modeProbe(9, 1, 3, 2, false), 5)
	if v := r.c.Process(ctx); v != dataplane.Consume {
		t.Fatalf("verdict = %v", v)
	}
	if !r.modes[3] {
		t.Fatal("probe did not activate mode")
	}
	ems := ctx.Emissions()
	if len(ems) != 1 || ems[0].Pkt.Probe.HopsLeft != 7 {
		t.Fatalf("reflood wrong: %v", ems)
	}
	// Duplicate: no re-apply, no reflood.
	ctx2 := ctxAt(time.Millisecond, modeProbe(9, 1, 3, 2, false), 6)
	r.c.Process(ctx2)
	if len(ctx2.Emissions()) != 0 {
		t.Fatal("duplicate probe reflooded")
	}
	if r.c.Activations != 1 {
		t.Fatal("duplicate probe re-applied")
	}
}

func TestRegionScoping(t *testing.T) {
	r := newRig(1, Config{Region: 2})
	// Probe for region 7: forwarded, not applied.
	ctx := ctxAt(0, modeProbe(9, 1, 3, 7, false), 5)
	r.c.Process(ctx)
	if r.modes[3] {
		t.Fatal("foreign-region probe applied")
	}
	if len(ctx.Emissions()) != 1 {
		t.Fatal("foreign-region probe not forwarded")
	}
	// Global region applies everywhere.
	ctx2 := ctxAt(0, modeProbe(9, 2, 4, RegionGlobal, false), 5)
	r.c.Process(ctx2)
	if !r.modes[4] {
		t.Fatal("global probe not applied")
	}
}

func TestMixedVectorCoexistingModes(t *testing.T) {
	// Two regions of the network hold different active modes at once.
	rA := newRig(1, Config{Region: 1})
	rB := newRig(2, Config{Region: 2})
	probe1 := modeProbe(9, 1, 3, 1, false) // LFA defense in region 1
	probe2 := modeProbe(9, 2, 4, 2, false) // DDoS defense in region 2
	for _, r := range []*rig{rA, rB} {
		r.c.Process(ctxAt(0, probe1.Clone(), 5))
		r.c.Process(ctxAt(0, probe2.Clone(), 5))
	}
	if !rA.modes[3] || rA.modes[4] {
		t.Fatalf("region 1 modes wrong: %v", rA.modes)
	}
	if rB.modes[3] || !rB.modes[4] {
		t.Fatalf("region 2 modes wrong: %v", rB.modes)
	}
}

func TestOwnProbeIgnored(t *testing.T) {
	r := newRig(1, Config{Region: 2})
	ctx := ctxAt(0, modeProbe(1, 1, 3, 2, false), 5)
	if v := r.c.Process(ctx); v != dataplane.Consume {
		t.Fatal("own probe not consumed")
	}
	if r.modes[3] || len(ctx.Emissions()) != 0 {
		t.Fatal("own probe applied or reflooded")
	}
}

func TestDwellHysteresis(t *testing.T) {
	r := newRig(1, Config{Region: 2, MinDwell: time.Second})
	r.c.Process(ctxAt(0, modeProbe(9, 1, 3, 2, false), 5))
	if !r.modes[3] {
		t.Fatal("setup failed")
	}
	// Clear arrives 100ms later: inside dwell → suppressed.
	r.c.Process(ctxAt(100*time.Millisecond, modeProbe(9, 2, 3, 2, true), 5))
	if !r.modes[3] {
		t.Fatal("mode cleared inside dwell window")
	}
	if r.c.Suppressed == 0 {
		t.Fatal("suppression not counted")
	}
	// Clear after dwell: applied.
	r.c.Process(ctxAt(2*time.Second, modeProbe(9, 3, 3, 2, true), 5))
	if r.modes[3] {
		t.Fatal("mode not cleared after dwell")
	}
	if _, ok := r.c.ActiveSince(3); ok {
		t.Fatal("ActiveSince reports cleared mode")
	}
}

func TestClearOfInactiveModeIsNoop(t *testing.T) {
	r := newRig(1, Config{Region: 2})
	r.c.Process(ctxAt(0, modeProbe(9, 1, 3, 2, true), 5))
	if r.c.Clears != 0 {
		t.Fatal("cleared a mode that was never active")
	}
}

func TestChangeBudgetStopsFlapping(t *testing.T) {
	r := newRig(1, Config{Region: 2, MinDwell: time.Millisecond,
		ChangeBudget: 4, BudgetWindow: 10 * time.Second})
	now := time.Duration(0)
	seq := uint32(0)
	flip := func(clear bool) {
		seq++
		now += 100 * time.Millisecond
		r.c.Process(ctxAt(now, modeProbe(9, seq, 3, 2, clear), 5))
	}
	// An attacker-driven oscillation: activate/clear repeatedly.
	for i := 0; i < 10; i++ {
		flip(false)
		flip(true)
	}
	applied := r.c.Activations + r.c.Clears
	if applied > 4 {
		t.Fatalf("budget exceeded: %d transitions applied", applied)
	}
	if r.c.Suppressed == 0 {
		t.Fatal("no suppression recorded")
	}
	// After the window passes, changes are allowed again.
	now += 11 * time.Second
	seq++
	r.c.Process(ctxAt(now, modeProbe(9, seq, 5, 2, false), 5))
	if !r.modes[5] {
		t.Fatal("budget did not replenish after window")
	}
}

func TestReassertionRefreshesDwell(t *testing.T) {
	r := newRig(1, Config{Region: 2, MinDwell: time.Second})
	r.c.Process(ctxAt(0, modeProbe(9, 1, 3, 2, false), 5))
	// Re-assert at 900ms: dwell now anchored there.
	r.c.Process(ctxAt(900*time.Millisecond, modeProbe(9, 2, 3, 2, false), 5))
	if r.c.Activations != 1 {
		t.Fatal("re-assertion counted as new activation")
	}
	// Clear at 1.5s: only 600ms since re-assertion → suppressed.
	r.c.Process(ctxAt(1500*time.Millisecond, modeProbe(9, 3, 3, 2, true), 5))
	if !r.modes[3] {
		t.Fatal("dwell not refreshed by re-assertion")
	}
}

func TestOnChangeHook(t *testing.T) {
	r := newRig(1, Config{Region: 2, MinDwell: time.Millisecond})
	var events []string
	r.c.OnChange = func(m dataplane.ModeID, active bool, now time.Duration) {
		if active {
			events = append(events, "on")
		} else {
			events = append(events, "off")
		}
	}
	r.c.Process(ctxAt(0, modeProbe(9, 1, 3, 2, false), 5))
	r.c.Process(ctxAt(time.Second, modeProbe(9, 2, 3, 2, true), 5))
	if len(events) != 2 || events[0] != "on" || events[1] != "off" {
		t.Fatalf("events = %v", events)
	}
}

// --- Distributed detection sync ---

func TestSyncBroadcastAndAggregate(t *testing.T) {
	r := newRig(1, Config{Region: 1, SyncEvery: 100 * time.Millisecond})
	local := uint32(10)
	r.c.RegisterMetric(7, func() uint32 { return local })

	// Data packet past the sync gate triggers a broadcast.
	ctx := ctxAt(200*time.Millisecond, dataPkt(), 0)
	r.c.Process(ctx)
	ems := ctx.Emissions()
	if len(ems) != 1 || ems[0].Pkt.Probe.Kind != packet.ProbeSync {
		t.Fatalf("no sync broadcast: %v", ems)
	}
	if ems[0].Pkt.Probe.UtilMicro != 10 || ems[0].Pkt.Probe.Mode != 7 {
		t.Fatalf("sync payload wrong: %+v", ems[0].Pkt.Probe)
	}

	// Remote samples fold into the global view.
	remote := &packet.Packet{
		Src: packet.RouterAddr(5), Dst: packet.RouterAddr(0xFFFE), TTL: 64,
		Proto: packet.ProtoProbe,
		Probe: &packet.ProbeInfo{Kind: packet.ProbeSync, Origin: packet.RouterAddr(5),
			Seq: 1, HopsLeft: 4, Mode: 7, UtilMicro: 32, SyncCount: 1},
	}
	rctx := ctxAt(250*time.Millisecond, remote, 3)
	if v := r.c.Process(rctx); v != dataplane.Consume {
		t.Fatal("sync probe not consumed")
	}
	if len(rctx.Emissions()) != 1 {
		t.Fatal("sync probe not reflooded")
	}
	if got := r.c.GlobalValue(7, 250*time.Millisecond); got != 42 {
		t.Fatalf("global value = %d, want 42 (10 local + 32 remote)", got)
	}
	if r.c.PeerCount(7, 250*time.Millisecond) != 1 {
		t.Fatal("peer count wrong")
	}
	// Stale samples age out (SyncStale = 300ms).
	if got := r.c.GlobalValue(7, 2*time.Second); got != 10 {
		t.Fatalf("stale sample still counted: %d", got)
	}
}

// --- Integration over netsim: RTT-timescale propagation ---

func TestModeChangePropagationLatency(t *testing.T) {
	// A 5-switch line: the alarm at one end must activate the far end in
	// ≈ diameter × per-hop latency (~4ms here), i.e. RTT timescale — not
	// the 30s control-plane timescale the paper's baseline needs.
	g := topo.NewLinear(5)
	n := netsim.New(g, netsim.DefaultConfig())
	ctrls := make([]*Controller, 5)
	activated := make([]time.Duration, 5)
	for i := 0; i < 5; i++ {
		i := i
		sw := n.Switch(topo.NodeID(i))
		c := NewController(topo.NodeID(i), sw.SetMode, sw.SeenProbe, Config{Region: 1})
		c.OnChange = func(m dataplane.ModeID, active bool, now time.Duration) {
			if active && activated[i] == 0 {
				activated[i] = now
			}
		}
		if err := sw.Install(dataplane.Program{PPM: c, Priority: dataplane.PriControl, Modes: 1}); err != nil {
			t.Fatal(err)
		}
		ctrls[i] = c
	}
	// Fire the alarm at switch 0 at t = 10ms.
	n.Eng.ScheduleRank(10*time.Millisecond, n.Owner(netsim.SiteScript).Next(), func() {
		ctx := &dataplane.Context{Now: n.Now(), Switch: 0, InLink: -1,
			Pkt: dataPkt(), OutLink: -1}
		ctrls[0].RequestActivate(ctx, 3, 1)
		// Flood the emitted probes as the pipeline's emission path would.
		for _, em := range ctx.Emissions() {
			for _, lid := range n.SwitchLinks(0) {
				n.Enqueue(lid, em.Pkt.Clone())
			}
		}
	})
	n.Run(time.Second)
	for i := 0; i < 5; i++ {
		if activated[i] == 0 {
			t.Fatalf("switch %d never activated", i)
		}
	}
	farLatency := activated[4] - activated[0]
	if farLatency <= 0 || farLatency > 10*time.Millisecond {
		t.Fatalf("far-end activation latency = %v, want ≈4ms (RTT timescale)", farLatency)
	}
	if !n.Switch(4).Modes().Has(3) {
		t.Fatal("mode register not actually set at far end")
	}
}

func TestSoftTTLExpiry(t *testing.T) {
	r := newRig(1, Config{Region: 1, SoftTTL: time.Second})
	r.c.Process(ctxAt(0, modeProbe(9, 1, 3, 1, false), 5))
	if !r.modes[3] {
		t.Fatal("setup failed")
	}
	// Heartbeat-style evaluations: within TTL the mode persists.
	r.c.Process(ctxAt(900*time.Millisecond, dataPkt(), 5))
	if !r.modes[3] {
		t.Fatal("mode expired before TTL")
	}
	// Re-assertion refreshes the lease.
	r.c.Process(ctxAt(950*time.Millisecond, modeProbe(9, 2, 3, 1, false), 5))
	r.c.Process(ctxAt(1800*time.Millisecond, dataPkt(), 5))
	if !r.modes[3] {
		t.Fatal("lease not refreshed by re-assertion")
	}
	// No more assertions: the lease expires.
	r.c.Process(ctxAt(3*time.Second, dataPkt(), 5))
	if r.modes[3] {
		t.Fatal("mode did not expire after TTL")
	}
	if r.c.Expired != 1 {
		t.Fatalf("expired counter = %d", r.c.Expired)
	}
}
