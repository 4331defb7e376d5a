// Spoofing defense: the extended booster catalog in action on an
// asymmetric topology. A hop-count filter (NetHCF-style [51]) at the
// victim's edge learns how far away legitimate sources live and drops a
// spoofed flood whose TTLs betray the wrong distance; a header normalizer
// (NetWarden-flavored [78]) at a compromised host's own edge flattens the
// TTL covert channel it uses for exfiltration — two more of the in-network
// defenses the paper's §1 envisions running on this architecture.
package main

import (
	"fmt"
	"time"

	"fastflex/internal/booster"
	"fastflex/internal/control"
	"fastflex/internal/dataplane"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

func main() {
	// A chain makes distances meaningful: s0 — s1 — s2 — s3.
	// userFar@s0 (3 hops from the victim edge), compromised@s1 (2 hops),
	// spoofer@s2 (1 hop), victim@s3.
	g := topo.NewLinear(4)
	userFar := g.AttachHost(0, "userFar", topo.DefaultHostBPS, topo.DefaultHostDelay)
	compromised := g.AttachHost(1, "compromised", topo.DefaultHostBPS, topo.DefaultHostDelay)
	spoofer := g.AttachHost(2, "spoofer", topo.DefaultHostBPS, topo.DefaultHostDelay)
	victimHost := g.AttachHost(3, "victim", topo.DefaultHostBPS, topo.DefaultHostDelay)
	victim := packet.HostAddr(int(victimHost))

	n := netsim.New(g, netsim.DefaultConfig())
	control.NewTEController(n, control.Config{}).InstallStatic()

	// Hop-count filter at the victim's edge switch.
	hcf := booster.NewHopCountFilter(3, booster.HCFConfig{LearnFor: 3 * time.Second})
	must(n.Switch(3).Install(dataplane.Program{PPM: hcf, Priority: dataplane.PriDetect, Modes: 1}))

	// Header normalizer at the compromised host's own edge, so covert
	// TTLs are flattened before anything downstream can read them.
	norm := booster.NewNormalizer(1, booster.NormalizeConfig{
		Protected: []packet.Addr{packet.HostAddr(int(compromised))},
	})
	must(n.Switch(1).Install(dataplane.Program{PPM: norm, Priority: dataplane.PriDetect - 10, Modes: 1}))

	// Legitimate traffic (learning window and beyond).
	netsim.NewCBRSource(n, userFar, victim, 3000, 80, packet.ProtoTCP, 800, 2e6).Start()
	netsim.NewCBRSource(n, compromised, victim, 3001, 80, packet.ProtoTCP, 800, 2e6).Start()

	// From 5s: the spoofer floods the victim, forging userFar's address.
	// It is 1 hop from the victim edge; userFar is 3 — the TTLs lie.
	n.Eng.ScheduleRank(5*time.Second, n.Owner(netsim.SiteScript).Next(), func() {
		var seq uint32
		var emit func()
		emit = func() {
			seq++
			n.SendFromHost(spoofer, &packet.Packet{
				Src: packet.HostAddr(int(userFar)), // forged
				Dst: victim, TTL: 64, Proto: packet.ProtoUDP,
				SrcPort: uint16(9000 + seq%16), DstPort: 53,
				PayloadLen: 1200, Seq: seq,
			})
			if n.Now() < 15*time.Second {
				n.Eng.AfterRank(500*time.Microsecond, n.Owner(netsim.SiteScript).Next(), emit)
			}
		}
		emit()
	})

	// From 5s: the compromised host leaks a secret by modulating TTLs.
	n.Eng.ScheduleRank(5*time.Second, n.Owner(netsim.SiteScript).Next(), func() {
		secret := []uint8{7, 1, 4, 2, 6}
		var i uint32
		var leak func()
		leak = func() {
			n.SendFromHost(compromised, &packet.Packet{
				Src: packet.HostAddr(int(compromised)), Dst: victim,
				TTL: 64 - secret[i%5], Proto: packet.ProtoTCP,
				SrcPort: 2222, DstPort: 443, PayloadLen: 64, Seq: i,
			})
			i++
			if n.Now() < 15*time.Second {
				n.Eng.AfterRank(10*time.Millisecond, n.Owner(netsim.SiteScript).Next(), leak)
			}
		}
		leak()
	})

	// What the victim actually observes.
	spoofedArrived := 0
	seenTTL := map[uint8]bool{}
	n.Host(victimHost).OnSink(func(_ time.Duration, p *packet.Packet) {
		if p.Proto == packet.ProtoUDP && p.DstPort == 53 {
			spoofedArrived++
		}
		if p.Proto == packet.ProtoTCP && p.SrcPort == 2222 {
			seenTTL[p.TTL] = true
		}
	})

	n.Run(16 * time.Second)

	fmt.Printf("hop-count filter @victim edge: learned %d sources, %d spoofed packets detected, %d dropped, %d leaked through\n",
		hcf.Learned, hcf.Mismatches, hcf.Dropped, spoofedArrived)
	fmt.Printf("normalizer @compromised edge: %d covert TTLs rewritten; victim observed %d distinct TTL value(s) on the covert flow\n",
		norm.Rewritten, len(seenTTL))
	if spoofedArrived == 0 && len(seenTTL) == 1 {
		fmt.Println("both channels closed: spoofed flood dead at the victim edge, covert TTL channel flattened at the source.")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
