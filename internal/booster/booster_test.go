package booster

import (
	"math/rand"
	"testing"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

func mkCtx(now time.Duration, p *packet.Packet, in topo.LinkID, modes dataplane.ModeSet) *dataplane.Context {
	return &dataplane.Context{
		Now: now, Switch: 0, InLink: in, Pkt: p,
		RNG: rand.New(rand.NewSource(1)), Modes: modes, OutLink: -1,
	}
}

func botPacket(src int, dst packet.Addr, sport uint16) *packet.Packet {
	return &packet.Packet{
		Src: packet.HostAddr(src), Dst: dst, TTL: 60, Proto: packet.ProtoTCP,
		SrcPort: sport, DstPort: 80, Flags: packet.FlagACK, PayloadLen: 200,
	}
}

// --- LFA detector ---

func newTestLFA(load *float64, cfg LFAConfig) *LFADetector {
	return NewLFADetector(0, []topo.LinkID{0}, func(topo.LinkID) float64 { return *load }, cfg)
}

// driveFlows feeds n persistent low-rate flows into the detector from t0 to
// t1 at 10 packets/s each.
func driveFlows(d *LFADetector, n int, victim packet.Addr, t0, t1 time.Duration) []*dataplane.Context {
	var last []*dataplane.Context
	for now := t0; now <= t1; now += 100 * time.Millisecond {
		last = last[:0]
		for f := 0; f < n; f++ {
			ctx := mkCtx(now, botPacket(f, victim, uint16(1000+f)), 0, 0)
			d.Process(ctx)
			last = append(last, ctx)
		}
	}
	return last
}

func TestLFADetectorRaisesAlarm(t *testing.T) {
	load := 0.2
	victim := packet.HostAddr(50)
	var alarms []Alarm
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	d.Alarm = func(_ *dataplane.Context, a Alarm) { alarms = append(alarms, a) }

	// Phase 1: persistent flows but no congestion → no alarm.
	driveFlows(d, 12, victim, 0, 2*time.Second)
	if d.Active() || len(alarms) != 0 {
		t.Fatal("alarm raised without congestion")
	}
	// Phase 2: congestion appears → alarm.
	load = 0.95
	driveFlows(d, 12, victim, 2*time.Second, 4*time.Second)
	if !d.Active() {
		t.Fatal("no alarm despite congestion + persistent flows")
	}
	// The first alarm raises; subsequent ones are periodic re-assertions
	// (stability mechanism), all Active.
	if len(alarms) == 0 || !alarms[0].Active || alarms[0].Class != AttackLFA {
		t.Fatalf("alarms = %+v", alarms)
	}
	for _, a := range alarms {
		if !a.Active {
			t.Fatalf("unexpected clear in %+v", alarms)
		}
	}
	if d.Alarms != 1 {
		t.Fatalf("alarm raise counter = %d, want 1 (reasserts don't count)", d.Alarms)
	}
}

func TestLFADetectorNoAlarmWithoutPersistentFlows(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	// Congestion + only 3 persistent flows (< MinFlows 8).
	driveFlows(d, 3, victim, 0, 3*time.Second)
	if d.Active() {
		t.Fatal("alarm with too few suspicious flows (plain congestion misread as LFA)")
	}
}

func TestLFADetectorIgnoresHighRateFlows(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}, MaxRateBps: 1e5})
	// 12 flows, but each at ~1.6 Mbps (1 KB × 200/s) — way over the
	// low-rate ceiling, so they don't match the Crossfire pattern.
	for now := time.Duration(0); now <= 3*time.Second; now += 5 * time.Millisecond {
		for f := 0; f < 12; f++ {
			p := botPacket(f, victim, uint16(1000+f))
			p.PayloadLen = 1000
			d.Process(mkCtx(now, p, 0, 0))
		}
	}
	if d.Active() {
		t.Fatal("high-rate flows misclassified as Crossfire pattern")
	}
}

func TestLFADetectorMarksAndEscalates(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	driveFlows(d, 10, victim, 0, 2*time.Second)
	// After detection, packets of suspect flows get tagged.
	ctx := mkCtx(2100*time.Millisecond, botPacket(0, victim, 1000), 0, 0)
	d.Process(ctx)
	if ctx.Pkt.Suspicion < SuspicionLow {
		t.Fatal("suspect flow packet not tagged")
	}
	// Keep the attack running past HighSuspicionAfter (3s): escalation.
	driveFlows(d, 10, victim, 2*time.Second, 5*time.Second)
	ctx = mkCtx(5100*time.Millisecond, botPacket(0, victim, 1000), 0, 0)
	d.Process(ctx)
	if ctx.Pkt.Suspicion != SuspicionHigh {
		t.Fatalf("long-lived suspect not escalated: %d", ctx.Pkt.Suspicion)
	}
}

func TestLFADetectorDoesNotMarkCleanTraffic(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	driveFlows(d, 10, victim, 0, 3*time.Second)
	// A short-lived flow to the victim stays clean.
	p := botPacket(99, victim, 9999)
	ctx := mkCtx(3*time.Second+time.Millisecond, p, 0, 0)
	d.Process(ctx)
	if ctx.Pkt.Suspicion != SuspicionNone {
		t.Fatal("fresh flow tagged as suspicious")
	}
	// Traffic from clean sources to other destinations is not tracked.
	other := mkCtx(3*time.Second+2*time.Millisecond, botPacket(98, packet.HostAddr(77), 1001), 0, 0)
	d.Process(other)
	if other.Pkt.Suspicion != SuspicionNone {
		t.Fatal("unprotected destination traffic from a clean source tagged")
	}
	// But a bot's traffic inherits suspicion even on new flows/dsts
	// (source-based suspicion feeds the obfuscator).
	botProbe := mkCtx(3*time.Second+3*time.Millisecond, botPacket(1, packet.HostAddr(77), 40000), 0, 0)
	d.Process(botProbe)
	if botProbe.Pkt.Suspicion < SuspicionLow {
		t.Fatal("bot source's fresh flow not tagged")
	}
}

func TestLFADetectorClearsWithHysteresis(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	var alarms []Alarm
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}, ClearAfter: time.Second})
	d.Alarm = func(_ *dataplane.Context, a Alarm) { alarms = append(alarms, a) }
	driveFlows(d, 10, victim, 0, 2*time.Second)
	if !d.Active() {
		t.Fatal("setup: no alarm")
	}
	// Load drops briefly (less than ClearAfter) — must NOT clear.
	load = 0.1
	driveFlows(d, 10, victim, 2*time.Second, 2500*time.Millisecond)
	if !d.Active() {
		t.Fatal("cleared before hysteresis expired")
	}
	// Load spikes again — calm timer resets.
	load = 0.95
	driveFlows(d, 10, victim, 2600*time.Millisecond, 2800*time.Millisecond)
	load = 0.1
	driveFlows(d, 10, victim, 2900*time.Millisecond, 4200*time.Millisecond)
	if d.Active() {
		t.Fatal("did not clear after sustained calm")
	}
	if len(alarms) < 2 || alarms[len(alarms)-1].Active {
		t.Fatalf("alarms = %+v, want raises then a final clear", alarms)
	}
	if d.Alarms != 1 || d.Clears != 1 {
		t.Fatalf("raise/clear counters = %d/%d, want 1/1", d.Alarms, d.Clears)
	}
	// Suspicion wiped on clear.
	ctx := mkCtx(4300*time.Millisecond, botPacket(0, victim, 1000), 0, 0)
	d.Process(ctx)
	if ctx.Pkt.Suspicion != SuspicionNone {
		t.Fatal("suspicion survived alarm clear")
	}
}

func TestLFADetectorSnapshotRestore(t *testing.T) {
	load := 0.95
	victim := packet.HostAddr(50)
	d := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	driveFlows(d, 10, victim, 0, 2*time.Second)
	snap := d.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot with tracked flows")
	}
	d2 := newTestLFA(&load, LFAConfig{Protected: []packet.Addr{victim}})
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The restored detector keeps tagging established suspects.
	ctx := mkCtx(2100*time.Millisecond, botPacket(0, victim, 1000), 0, 0)
	d2.Process(ctx)
	if ctx.Pkt.Suspicion < SuspicionLow {
		t.Fatal("restored detector lost suspicion state")
	}
	if err := d2.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// --- Dropper ---

func TestDropperLevels(t *testing.T) {
	d := NewDropper(0, DropperConfig{})
	clean := mkCtx(0, botPacket(1, packet.HostAddr(2), 1), 0, 0)
	if d.Process(clean) != dataplane.Continue {
		t.Fatal("clean packet dropped")
	}
	low := mkCtx(0, botPacket(1, packet.HostAddr(2), 1), 0, 0)
	low.Pkt.Suspicion = SuspicionLow
	if d.Process(low) != dataplane.Continue {
		t.Fatal("low-suspicion packet dropped with limiting disabled")
	}
	high := mkCtx(0, botPacket(1, packet.HostAddr(2), 1), 0, 0)
	high.Pkt.Suspicion = SuspicionHigh
	if d.Process(high) != dataplane.Drop {
		t.Fatal("high-suspicion packet not dropped")
	}
	if d.DroppedHigh != 1 {
		t.Fatalf("counter = %d", d.DroppedHigh)
	}
}

func TestDropperRateLimiting(t *testing.T) {
	d := NewDropper(0, DropperConfig{LimitFraction: 0.5})
	dropped := 0
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		ctx := mkCtx(0, botPacket(1, packet.HostAddr(2), 1), 0, 0)
		ctx.RNG = rng
		ctx.Pkt.Suspicion = SuspicionLow
		if d.Process(ctx) == dataplane.Drop {
			dropped++
		}
	}
	if dropped < n*4/10 || dropped > n*6/10 {
		t.Fatalf("limited %d of %d, want ≈50%%", dropped, n)
	}
}

func TestDropperIgnoresControlTraffic(t *testing.T) {
	d := NewDropper(0, DropperConfig{})
	p := &packet.Packet{Proto: packet.ProtoProbe, Suspicion: SuspicionHigh,
		Probe: &packet.ProbeInfo{Kind: packet.ProbeModeChange}}
	if d.Process(mkCtx(0, p, 0, 0)) != dataplane.Continue {
		t.Fatal("probe dropped by suspicion dropper")
	}
}

// --- Obfuscator ---

func TestObfuscatorFabricatesStableHops(t *testing.T) {
	o := NewObfuscator(3, ObfuscateConfig{Salt: 42})
	dst := packet.HostAddr(9)
	mk := func(hops uint8, seq uint32) *dataplane.Context {
		p := &packet.Packet{Src: packet.HostAddr(1), Dst: dst, TTL: 1, Hops: hops,
			Proto: packet.ProtoUDP, Seq: seq, Suspicion: SuspicionLow}
		return mkCtx(0, p, 0, 0)
	}
	ctx1 := mk(2, 100)
	if o.Process(ctx1) != dataplane.Drop {
		t.Fatal("expiring suspicious probe not absorbed")
	}
	ems := ctx1.Emissions()
	if len(ems) != 1 || ems[0].Pkt.ICMP == nil {
		t.Fatal("no fabricated ICMP")
	}
	from1 := ems[0].Pkt.ICMP.From
	if from1.Node() >= 0 && from1.Node() < 0x8000 {
		t.Fatalf("virtual address %v collides with real switch space", from1)
	}
	// Same (dst, position) from a different switch instance on a
	// different real path → identical virtual hop.
	o2 := NewObfuscator(5, ObfuscateConfig{Salt: 42})
	ctx2 := mk(2, 200)
	o2.Process(ctx2)
	if got := ctx2.Emissions()[0].Pkt.ICMP.From; got != from1 {
		t.Fatalf("virtual hop unstable across switches: %v vs %v", got, from1)
	}
	// Different positions map to different virtual hops.
	ctx3 := mk(3, 300)
	o.Process(ctx3)
	if ctx3.Emissions()[0].Pkt.ICMP.From == from1 {
		t.Fatal("distinct positions share a virtual hop")
	}
	// Different salt → different fiction.
	o3 := NewObfuscator(3, ObfuscateConfig{Salt: 43})
	ctx4 := mk(2, 400)
	o3.Process(ctx4)
	if ctx4.Emissions()[0].Pkt.ICMP.From == from1 {
		t.Fatal("salt does not vary the virtual topology")
	}
}

func TestObfuscatorLeavesCleanAndTransitAlone(t *testing.T) {
	o := NewObfuscator(3, ObfuscateConfig{})
	clean := mkCtx(0, &packet.Packet{Src: 1, Dst: 2, TTL: 1, Proto: packet.ProtoUDP}, 0, 0)
	if o.Process(clean) != dataplane.Continue {
		t.Fatal("clean expiring probe absorbed")
	}
	transit := mkCtx(0, &packet.Packet{Src: 1, Dst: 2, TTL: 10, Proto: packet.ProtoUDP,
		Suspicion: SuspicionLow}, 0, 0)
	if o.Process(transit) != dataplane.Continue {
		t.Fatal("non-expiring packet absorbed")
	}
	local := mkCtx(0, &packet.Packet{Src: 1, Dst: 2, TTL: 1, Proto: packet.ProtoUDP,
		Suspicion: SuspicionLow}, -1, 0)
	if o.Process(local) != dataplane.Continue {
		t.Fatal("locally originated packet absorbed")
	}
}

// --- Reroute ---

// rerouteRig builds the Figure-2 topology with a reroute booster on CoreA.
type rerouteRig struct {
	f     *topo.Figure2
	r     *Reroute
	utils map[topo.LinkID]float64
	seen  map[packet.DedupKey]bool
}

func newRerouteRig(cfg RerouteConfig) *rerouteRig {
	f := topo.NewFigure2()
	victim := f.G.AttachHost(f.VictimEdge, "v", topo.DefaultHostBPS, topo.DefaultHostDelay)
	_ = victim
	rig := &rerouteRig{f: f, utils: map[topo.LinkID]float64{}, seen: map[packet.DedupKey]bool{}}
	rig.r = NewReroute(f.CoreA, f.G, func(l topo.LinkID) float64 { return rig.utils[l] },
		func(k packet.DedupKey) bool {
			if rig.seen[k] {
				return true
			}
			rig.seen[k] = true
			return false
		}, cfg)
	return rig
}

// feedProbe delivers a util probe from the victim edge arriving over link
// `in` (a link pointing INTO CoreA).
func (rig *rerouteRig) feedProbe(t testing.TB, in topo.LinkID, utilMicro uint32, seq uint32, now time.Duration) *dataplane.Context {
	t.Helper()
	p := &packet.Packet{
		Src: packet.RouterAddr(int(rig.f.VictimEdge)), Dst: packet.RouterAddr(0xFFFE),
		TTL: 60, Proto: packet.ProtoProbe,
		Probe: &packet.ProbeInfo{
			Kind: packet.ProbeUtil, Origin: packet.RouterAddr(int(rig.f.VictimEdge)),
			Seq: seq, HopsLeft: 8, DstSwitch: uint16(rig.f.VictimEdge), UtilMicro: utilMicro,
		},
	}
	ctx := mkCtx(now, p, in, dataplane.ModeSet(0).With(ModeReroute))
	if v := rig.r.Process(ctx); v != dataplane.Consume {
		t.Fatalf("probe verdict = %v, want Consume", v)
	}
	return ctx
}

func (rig *rerouteRig) victimAddr() packet.Addr {
	hosts := rig.f.G.Hosts()
	return packet.HostAddr(int(hosts[len(hosts)-1]))
}

func TestRerouteLearnsFromProbesAndRefloods(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	g := rig.f.G
	// Probe from victimEdge arrives at CoreA over the critical link's
	// reverse (i.e. victimEdge→coreA).
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	rig.utils[rig.f.CriticalLinkA] = 0.95 // the critical link is flooded
	ctx := rig.feedProbe(t, inCrit, 0, 1, 0)
	// Reflood must carry the accumulated max utilization.
	if len(ctx.Emissions()) != 1 {
		t.Fatalf("emissions = %d, want reflood", len(ctx.Emissions()))
	}
	re := ctx.Emissions()[0].Pkt.Probe
	if re.UtilMicro < 900000 {
		t.Fatalf("reflooded util = %d, want ≈950000", re.UtilMicro)
	}
	if re.HopsLeft != 7 {
		t.Fatalf("hops not decremented: %d", re.HopsLeft)
	}
	// Duplicate of the same probe: table refresh but no reflood.
	ctx2 := rig.feedProbe(t, inCrit, 0, 1, time.Millisecond)
	if len(ctx2.Emissions()) != 0 {
		t.Fatal("duplicate probe reflooded")
	}
	// Table now knows the path via the critical link.
	via, util, ok := rig.r.BestVia(rig.f.VictimEdge, time.Millisecond, -1)
	if !ok || via != rig.f.CriticalLinkA {
		t.Fatalf("best via = %d ok=%v", via, ok)
	}
	if util < 0.9 {
		t.Fatalf("best util = %v", util)
	}
}

func TestRerouteSteersSuspiciousToDetour(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	detourLink := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
	inDetour := g.Links[detourLink].Reverse

	rig.utils[rig.f.CriticalLinkA] = 0.95
	rig.utils[detourLink] = 0.05
	rig.feedProbe(t, inCrit, 0, 1, 0)
	rig.feedProbe(t, inDetour, 100000, 2, 0) // via detour: 10% somewhere upstream

	// Suspicious packet with TE egress = critical link gets moved.
	p := botPacket(1, rig.victimAddr(), 1000)
	p.Suspicion = SuspicionLow
	ctx := mkCtx(time.Millisecond, p, g.LinkBetween(rig.f.IngressA, rig.f.CoreA),
		dataplane.ModeSet(0).With(ModeReroute).With(ModeMitigate))
	ctx.OutLink = rig.f.CriticalLinkA // as the TE router chose
	rig.r.Process(ctx)
	if ctx.OutLink != detourLink {
		t.Fatalf("suspicious packet egress = %d, want detour %d", ctx.OutLink, detourLink)
	}
	if rig.r.Rerouted != 1 {
		t.Fatalf("rerouted counter = %d", rig.r.Rerouted)
	}
}

func TestReroutePinsNormalFlowsInMitigationMode(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	detourLink := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
	inDetour := g.Links[detourLink].Reverse
	rig.utils[rig.f.CriticalLinkA] = 0.95
	rig.feedProbe(t, inCrit, 0, 1, 0)
	rig.feedProbe(t, inDetour, 0, 2, 0)

	clean := botPacket(2, rig.victimAddr(), 2000)
	ctx := mkCtx(time.Millisecond, clean, g.LinkBetween(rig.f.IngressA, rig.f.CoreA),
		dataplane.ModeSet(0).With(ModeReroute).With(ModeMitigate))
	ctx.OutLink = rig.f.CriticalLinkA
	rig.r.Process(ctx)
	if ctx.OutLink != rig.f.CriticalLinkA {
		t.Fatal("normal flow was rerouted despite pinning mode")
	}

	// In pure reroute mode (step 2), normal flows ARE rerouted.
	ctx2 := mkCtx(2*time.Millisecond, botPacket(2, rig.victimAddr(), 2000),
		g.LinkBetween(rig.f.IngressA, rig.f.CoreA), dataplane.ModeSet(0).With(ModeReroute))
	ctx2.OutLink = rig.f.CriticalLinkA
	rig.r.Process(ctx2)
	if ctx2.OutLink != detourLink {
		t.Fatal("normal flow not rerouted in reroute-all mode")
	}

	// Ablation override: reroute-all even in mitigation mode.
	rig2 := newRerouteRig(RerouteConfig{RerouteAllOverride: true})
	rig2.utils[rig2.f.CriticalLinkA] = 0.95
	rig2.feedProbe(t, inCrit, 0, 1, 0)
	rig2.feedProbe(t, inDetour, 0, 2, 0)
	ctx3 := mkCtx(time.Millisecond, botPacket(2, rig2.victimAddr(), 2000),
		g.LinkBetween(rig2.f.IngressA, rig2.f.CoreA),
		dataplane.ModeSet(0).With(ModeReroute).With(ModeMitigate))
	ctx3.OutLink = rig2.f.CriticalLinkA
	rig2.r.Process(ctx3)
	if ctx3.OutLink == rig2.f.CriticalLinkA {
		t.Fatal("override did not force rerouting")
	}
}

func TestRerouteHysteresisKeepsTEPath(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	detourLink := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
	inDetour := g.Links[detourLink].Reverse
	// Both paths mildly loaded and similar: stay on TE path.
	rig.utils[rig.f.CriticalLinkA] = 0.30
	rig.utils[detourLink] = 0.25
	rig.feedProbe(t, inCrit, 300000, 1, 0)
	rig.feedProbe(t, inDetour, 250000, 2, 0)
	p := botPacket(1, rig.victimAddr(), 1000)
	p.Suspicion = SuspicionLow
	ctx := mkCtx(time.Millisecond, p, g.LinkBetween(rig.f.IngressA, rig.f.CoreA),
		dataplane.ModeSet(0).With(ModeReroute))
	ctx.OutLink = rig.f.CriticalLinkA
	rig.r.Process(ctx)
	if ctx.OutLink != rig.f.CriticalLinkA {
		t.Fatal("rerouted for a marginal gain within hysteresis")
	}
}

func TestRerouteStaleEntriesIgnored(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{ProbeEvery: 50 * time.Millisecond})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	rig.feedProbe(t, inCrit, 0, 1, 0)
	if _, _, ok := rig.r.BestVia(rig.f.VictimEdge, 100*time.Millisecond, -1); !ok {
		t.Fatal("fresh entry missing")
	}
	if _, _, ok := rig.r.BestVia(rig.f.VictimEdge, 10*time.Second, -1); ok {
		t.Fatal("stale entry still used")
	}
}

func TestRerouteOriginatesProbesPeriodically(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{ProbeEvery: 50 * time.Millisecond})
	g := rig.f.G
	in := g.LinkBetween(rig.f.IngressA, rig.f.CoreA)
	drive := func(now time.Duration) int {
		ctx := mkCtx(now, botPacket(1, rig.victimAddr(), 1), in, dataplane.ModeSet(0).With(ModeReroute))
		rig.r.Process(ctx)
		n := 0
		for _, em := range ctx.Emissions() {
			if em.Pkt.Proto == packet.ProtoProbe && em.Pkt.Probe.Kind == packet.ProbeUtil {
				n++
			}
		}
		return n
	}
	if drive(50*time.Millisecond) != 1 {
		t.Fatal("no probe at first gate")
	}
	if drive(60*time.Millisecond) != 0 {
		t.Fatal("probe emitted before period elapsed")
	}
	if drive(110*time.Millisecond) != 1 {
		t.Fatal("no probe after period elapsed")
	}
	if rig.r.Probes != 2 {
		t.Fatalf("probe counter = %d", rig.r.Probes)
	}
}

func TestRerouteNeverBouncesBack(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	g := rig.f.G
	// Only known route to victim is back out the ingress we came from.
	inFromIngress := g.LinkBetween(rig.f.IngressA, rig.f.CoreA)
	backToIngress := g.Links[inFromIngress].Reverse
	e := rig.r.entry(rig.f.VictimEdge, backToIngress)
	if e == nil {
		t.Fatal("no table entry for the ingress egress")
	}
	*e = rerouteEntry{util: 0.0, at: 0}
	p := botPacket(1, rig.victimAddr(), 1000)
	p.Suspicion = SuspicionLow
	ctx := mkCtx(time.Millisecond, p, inFromIngress, dataplane.ModeSet(0).With(ModeReroute))
	ctx.OutLink = rig.f.CriticalLinkA
	rig.r.Process(ctx)
	if ctx.OutLink == backToIngress {
		t.Fatal("packet bounced back toward its ingress")
	}
}

// --- Heavy hitter ---

func TestHeavyHitterFlagsElephants(t *testing.T) {
	var alarms []Alarm
	h := NewHeavyHitter(0, HHConfig{Epoch: time.Second, ThresholdPkts: 100})
	h.Alarm = func(_ *dataplane.Context, a Alarm) { alarms = append(alarms, a) }
	elephant := botPacket(1, packet.HostAddr(9), 5555)
	mouse := botPacket(2, packet.HostAddr(9), 6666)
	for i := 0; i < 300; i++ {
		now := time.Duration(i) * 3 * time.Millisecond
		h.Process(mkCtx(now, elephant.Clone(), 0, 0))
		if i%50 == 0 {
			h.Process(mkCtx(now, mouse.Clone(), 0, 0))
		}
	}
	if !h.Active() {
		t.Fatal("volumetric attack not flagged")
	}
	// First alarm raises; later ones are periodic re-assertions.
	if len(alarms) == 0 || alarms[0].Class != AttackVolumetric || !alarms[0].Active {
		t.Fatalf("alarms = %+v", alarms)
	}
	if h.Alarms != 1 {
		t.Fatalf("raise counter = %d, want 1", h.Alarms)
	}
	// Elephant packets get marked, mice don't.
	e := mkCtx(time.Second-time.Millisecond, elephant.Clone(), 0, 0)
	h.Process(e)
	if e.Pkt.Suspicion != SuspicionHigh {
		t.Fatal("elephant not marked")
	}
	m := mkCtx(time.Second-time.Millisecond, mouse.Clone(), 0, 0)
	h.Process(m)
	if m.Pkt.Suspicion != SuspicionNone {
		t.Fatal("mouse marked")
	}
}

func TestHeavyHitterClearsAfterQuietEpochs(t *testing.T) {
	var alarms []Alarm
	h := NewHeavyHitter(0, HHConfig{Epoch: 100 * time.Millisecond, ThresholdPkts: 50, BanEpochs: 2})
	h.Alarm = func(_ *dataplane.Context, a Alarm) { alarms = append(alarms, a) }
	elephant := botPacket(1, packet.HostAddr(9), 5555)
	for i := 0; i < 100; i++ {
		h.Process(mkCtx(time.Duration(i)*time.Millisecond, elephant.Clone(), 0, 0))
	}
	if !h.Active() {
		t.Fatal("setup: not active")
	}
	// Attack stops; only background mice flow for many epochs.
	mouse := botPacket(2, packet.HostAddr(9), 6666)
	for i := 0; i < 20; i++ {
		now := 100*time.Millisecond + time.Duration(i)*50*time.Millisecond
		h.Process(mkCtx(now, mouse.Clone(), 0, 0))
	}
	if h.Active() {
		t.Fatal("alarm did not clear after bans aged out")
	}
	if len(alarms) != 2 || alarms[1].Active {
		t.Fatalf("alarms = %+v", alarms)
	}
}

// --- Reroute destinations ---

// TestRerouteEdgeSwitches: the booster steers by the edge switch of a
// packet's destination host, which it reads off the graph.
func TestRerouteEdgeSwitches(t *testing.T) {
	f := topo.NewFigure2()
	users := f.AttachUsers(2)
	servers := f.AttachServers(1)
	r := NewReroute(f.CoreA, f.G, func(topo.LinkID) float64 { return 0 }, nil, RerouteConfig{})
	if r.dstSwitch[users[0]] != f.IngressA {
		t.Fatal("user 0 edge switch wrong")
	}
	if r.dstSwitch[servers[0]] != f.VictimEdge {
		t.Fatal("server edge switch wrong")
	}
	hosts := 0
	for _, sw := range r.dstSwitch {
		if sw >= 0 {
			hosts++
		}
	}
	if hosts != 3 {
		t.Fatalf("%d destinations with an edge switch, want 3", hosts)
	}
}

// TestRerouteEmptyTableHasNoPath: before any probe, no register reads as a
// fresh idle path, even while now is inside StaleAfter of time zero.
func TestRerouteEmptyTableHasNoPath(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	if via, u, ok := rig.r.BestVia(rig.f.VictimEdge, time.Millisecond, -1); ok {
		t.Fatalf("empty table: BestVia = %d (util %v), want no path", via, u)
	}
}

// TestRerouteIgnoresForeignDestination: a utilization probe naming a switch
// outside the table is consumed without panicking, recording or reflooding.
func TestRerouteIgnoresForeignDestination(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{})
	in := rig.f.G.Links[rig.f.CriticalLinkA].Reverse
	p := &packet.Packet{
		Src: packet.RouterAddr(int(rig.f.VictimEdge)), Dst: packet.RouterAddr(0xFFFE),
		TTL: 60, Proto: packet.ProtoProbe,
		Probe: &packet.ProbeInfo{
			Kind: packet.ProbeUtil, Origin: packet.RouterAddr(int(rig.f.VictimEdge)),
			Seq: 1, HopsLeft: 8, DstSwitch: 0xFFFF,
		},
	}
	ctx := mkCtx(0, p, in, dataplane.ModeSet(0).With(ModeReroute))
	if v := rig.r.Process(ctx); v != dataplane.Consume {
		t.Fatalf("verdict = %v, want Consume", v)
	}
	if len(ctx.Emissions()) != 0 {
		t.Fatalf("foreign probe reflooded: %d emissions", len(ctx.Emissions()))
	}
	for i, e := range rig.r.table {
		if e.at != unset {
			t.Fatalf("register %d written: %+v", i, e)
		}
	}
}

func TestRerouteFlowletPinning(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{FlowletTimeout: 50 * time.Millisecond,
		MaxFlowletAge: 500 * time.Millisecond})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	detourLink := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
	inDetour := g.Links[detourLink].Reverse
	rig.utils[rig.f.CriticalLinkA] = 0.95
	rig.utils[detourLink] = 0.05
	rig.feedProbe(t, inCrit, 0, 1, 0)
	rig.feedProbe(t, inDetour, 0, 2, 0)

	steer := func(now time.Duration) topo.LinkID {
		p := botPacket(1, rig.victimAddr(), 1000)
		p.Suspicion = SuspicionLow
		ctx := mkCtx(now, p, g.LinkBetween(rig.f.IngressA, rig.f.CoreA),
			dataplane.ModeSet(0).With(ModeReroute))
		ctx.OutLink = rig.f.CriticalLinkA
		rig.r.Process(ctx)
		return ctx.OutLink
	}
	// First packet: fresh decision → detour.
	if got := steer(time.Millisecond); got != detourLink {
		t.Fatalf("first packet egress %d, want detour %d", got, detourLink)
	}
	// Utilization flips: critical now empty, detour flooded. A packet
	// inside the flowlet window must STILL follow the detour (no
	// mid-burst reordering), even though a fresh decision would differ.
	rig.utils[rig.f.CriticalLinkA] = 0.05
	rig.utils[detourLink] = 0.95
	rig.feedProbe(t, inCrit, 0, 3, 10*time.Millisecond)
	rig.feedProbe(t, inDetour, 900000, 4, 10*time.Millisecond)
	if got := steer(20 * time.Millisecond); got != detourLink {
		t.Fatalf("mid-burst packet egress %d, want pinned detour %d", got, detourLink)
	}
	if rig.r.Flowlets == 0 {
		t.Fatal("flowlet reuse not counted")
	}
	// After an inter-burst gap the flow re-decides onto the now-better
	// critical link.
	if got := steer(200 * time.Millisecond); got != rig.f.CriticalLinkA {
		t.Fatalf("post-gap packet egress %d, want critical %d", got, rig.f.CriticalLinkA)
	}
}

func TestRerouteFlowletMaxAge(t *testing.T) {
	rig := newRerouteRig(RerouteConfig{FlowletTimeout: 50 * time.Millisecond,
		MaxFlowletAge: 120 * time.Millisecond})
	g := rig.f.G
	inCrit := g.Links[rig.f.CriticalLinkA].Reverse
	detourLink := g.LinkBetween(rig.f.CoreA, rig.f.DetourA)
	inDetour := g.Links[detourLink].Reverse
	rig.utils[rig.f.CriticalLinkA] = 0.95
	rig.feedProbe(t, inCrit, 0, 1, 0)
	rig.feedProbe(t, inDetour, 0, 2, 0)

	steer := func(now time.Duration) topo.LinkID {
		p := botPacket(1, rig.victimAddr(), 1000)
		p.Suspicion = SuspicionLow
		ctx := mkCtx(now, p, g.LinkBetween(rig.f.IngressA, rig.f.CoreA),
			dataplane.ModeSet(0).With(ModeReroute))
		ctx.OutLink = rig.f.CriticalLinkA
		rig.r.Process(ctx)
		return ctx.OutLink
	}
	if got := steer(time.Millisecond); got != detourLink {
		t.Fatalf("first egress %d, want detour", got)
	}
	// A gap-less flow (packets every 10ms) would stay pinned forever on
	// the timeout alone; the max age forces a refresh. Flip utils and
	// refresh the tables, then keep the flow busy past the max age.
	rig.utils[rig.f.CriticalLinkA] = 0.05
	rig.utils[detourLink] = 0.95
	rig.feedProbe(t, inCrit, 0, 3, 5*time.Millisecond)
	rig.feedProbe(t, inDetour, 900000, 4, 5*time.Millisecond)
	var got topo.LinkID
	for now := 10 * time.Millisecond; now <= 200*time.Millisecond; now += 10 * time.Millisecond {
		got = steer(now)
	}
	if got != rig.f.CriticalLinkA {
		t.Fatalf("gap-less flow never re-decided: egress %d", got)
	}
}

// flowletRig is a reroute booster reduced to its flowlet table, with
// storage starting at initial entries.
func flowletRig(capacity, initial int, timeout time.Duration) *Reroute {
	return &Reroute{
		cfg:      RerouteConfig{FlowletTimeout: timeout, MaxFlowletAge: 2 * timeout},
		flowlets: sketch.NewTable[flowlet](capacity, initial),
	}
}

// findFlowlet is where flow k's flowlet sits, as the steering path probes for it.
func (r *Reroute) findFlowlet(k packet.FlowKey) flowletAt {
	at := flowletAt{key: k, hash: k.TableHash()}
	at.slot, at.entry = r.flowlets.Find(at.key, at.hash)
	return at
}

// TestFlowletTableStorageFollowsFlows pins the flowlet table as the
// steering path uses it: records fill it across storage growth; on a full
// table a new record first evicts exactly the stale flowlets, keeping the
// live ones findable; a table full of live flowlets records nothing; and a
// reset table that records the same flows again allocates nothing.
func TestFlowletTableStorageFollowsFlows(t *testing.T) {
	const capacity = 4096
	key := func(k int) packet.FlowKey { return botPacket(k%1000, packet.HostAddr(7), uint16(k/1000)).Key() }
	timeout := time.Duration(capacity/4) * time.Millisecond
	r := flowletRig(capacity, sketch.InitialEntries, timeout)
	record := func(k int, now time.Duration) {
		at := r.findFlowlet(key(k))
		if at.entry != nil {
			t.Fatalf("flow %d already recorded", k)
		}
		r.recordFlowlet(at, topo.LinkID(k), now)
	}
	for k := 0; k < capacity; k++ {
		record(k, time.Duration(k)*time.Millisecond)
	}
	if r.flowlets.Len() != capacity {
		t.Fatalf("len = %d, want %d", r.flowlets.Len(), capacity)
	}
	// Full table: recording flow `capacity` sweeps every flowlet older than
	// the timeout, and every newer one stays where the steering path looks.
	now := time.Duration(capacity) * time.Millisecond
	record(capacity, now)
	alive := 0
	for k := 0; k < capacity; k++ {
		e := r.findFlowlet(key(k)).entry
		live := now-time.Duration(k)*time.Millisecond < timeout
		if (e != nil) != live || e != nil && e.via != topo.LinkID(k) {
			t.Fatalf("flow %d after the sweep: entry %+v, want live=%v", k, e, live)
		}
		if live {
			alive++
		}
	}
	if r.flowlets.Len() != alive+1 {
		t.Fatalf("len after the sweep = %d, want %d", r.flowlets.Len(), alive+1)
	}
	// Refill with live flowlets; once full, a further flow is not recorded.
	for k := capacity + 1; r.flowlets.Len() < capacity; k++ {
		record(k, now)
	}
	record(2*capacity, now)
	if r.findFlowlet(key(2*capacity)).entry != nil || r.flowlets.Len() != capacity {
		t.Fatalf("full live table recorded a flowlet: len %d", r.flowlets.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		r.flowlets.Reset()
		for k := 0; k < capacity; k++ {
			record(k, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-recording after reset: %v allocs, want 0", allocs)
	}
}
