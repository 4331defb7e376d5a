package core

import (
	"testing"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
)

// blocker is the program a scale-out installs: it drops one source.
type blocker struct{ src packet.Addr }

func (blocker) Name() string { return "blocker" }

func (blocker) Resources() dataplane.Resources {
	return dataplane.Resources{Stages: 1, SRAMKB: 8, TCAM: 32, ALUs: 1}
}

func (b blocker) Process(ctx *dataplane.Context) dataplane.Verdict {
	if ctx.Pkt.Src == b.src {
		return dataplane.Drop
	}
	return dataplane.Continue
}

func TestFabricScaleOut(t *testing.T) {
	sc := newLFAScenario(t, Config{}, 2, 2)
	fab := sc.fab
	// Background traffic so the repurposing disruption would be visible.
	src := netsim.NewCBRSource(fab.Net, sc.users[0], sc.srvAddr[0], 1, 80,
		packet.ProtoTCP, 1000, 5e6)
	src.Start()
	fab.Run(time.Second)

	var doneErr error
	completed := false
	target := sc.f.DetourB
	err := fab.ScaleOut(target, 2*time.Second, func(sw *dataplane.Switch) error {
		// Repurpose the detour switch into a scrubber that hard-blocks a
		// known-bad source.
		return sw.Install(dataplane.Program{PPM: blocker{packet.HostAddr(999)}, Priority: dataplane.PriMitigate + 1, Modes: 1})
	}, func(err error) { completed = true; doneErr = err })
	if err != nil {
		t.Fatal(err)
	}
	if !fab.Net.Switch(target).Reconfiguring {
		t.Fatal("switch not in blackout during repurpose")
	}
	fab.Run(5 * time.Second)
	if !completed || doneErr != nil {
		t.Fatalf("scale-out did not complete cleanly: completed=%v err=%v", completed, doneErr)
	}
	if fab.Net.Switch(target).Reconfiguring {
		t.Fatal("switch stuck in blackout")
	}
	if fab.Net.Switch(target).Lookup("blocker") == nil {
		t.Fatal("new program not installed after repurpose")
	}
	// Traffic kept flowing (fast reroute masked the blackout; this flow's
	// path does not even cross the detour by default).
	recv := fab.Net.Host(sc.servers[0]).RecvBytes(packet.HostAddr(int(sc.users[0])))
	if recv < 2e6 {
		t.Fatalf("traffic starved during scale-out: %d bytes", recv)
	}
}

func TestFabricScaleOutNoNeighbor(t *testing.T) {
	sc := newLFAScenario(t, Config{DefenseOff: true}, 1, 0)
	if err := sc.fab.ScaleOut(999, time.Second, nil, nil); err == nil {
		t.Fatal("scale-out of nonexistent switch accepted")
	}
}
