package booster

import (
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// FuzzFlowletTable drives the reroute booster's flowlet table, and through
// it the shared sketch.Table core, against a map model of the flowlet
// rules: a live flowlet (younger than the timeout since its last packet
// and than the max age since its first) pins its flow; anything else takes
// a fresh decision that is recorded in place, or in a new entry when there
// is room, and a full table first drops every stale flowlet, recording
// nothing if none was stale. The first two bytes pick the capacity
// (1..64) and the initial storage (1..capacity), so storage doubles,
// fills, sweeps and is reused after a reset within a short stream. Each
// further 4-byte record is one operation.
func FuzzFlowletTable(f *testing.F) {
	// 64 flows 1 ms apart fill a 64-entry table that starts with one
	// entry; 32 more 40 ms later sweep the stale half; steering, a reset
	// and a refill follow.
	seed := []byte{63, 0}
	for k := byte(0); k < 96; k++ {
		gap := byte(1)
		if k == 64 {
			gap = 40
		}
		seed = append(seed, 0, k, gap, k)
	}
	seed = append(seed, 3, 70, 0, 0, 1, 70, 5, 9, 2, 0, 0, 0)
	for k := byte(0); k < 8; k++ {
		seed = append(seed, 1, k, 3, k)
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 60, 2, 3, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const timeout = 20 * time.Millisecond
		capacity := 1 + int(data[0])%64
		r := flowletRig(capacity, 1+int(data[1])%capacity, timeout)
		age := r.cfg.MaxFlowletAge
		ref := map[packet.FlowKey]flowlet{}
		var now time.Duration
		for i, op := 0, data[2:]; len(op) >= 4; i, op = i+1, op[4:] {
			k := fuzzFlow(op[1] % 96)
			switch op[0] % 4 {
			case 0, 1: // one steered packet, weighted so tables fill
				now += time.Duration(op[2]%64) * time.Millisecond
				via := topo.LinkID(op[3])
				at := r.findFlowlet(k)
				fl, ok := ref[k]
				if (at.entry != nil) != ok || ok && *at.entry != fl {
					t.Fatalf("op %d: flowlet %v, want %+v (held %v)", i, at.entry, fl, ok)
				}
				if ok && now-fl.lastSeen < timeout && now-fl.firstSeen < age {
					at.entry.lastSeen = now // pinned, as Process keeps it
					fl.lastSeen = now
					ref[k] = fl
					break
				}
				r.recordFlowlet(at, via, now)
				if !ok && len(ref) >= capacity {
					for kk, fl := range ref {
						if now-fl.lastSeen >= timeout {
							delete(ref, kk)
						}
					}
				}
				if ok || len(ref) < capacity {
					ref[k] = flowlet{via: via, firstSeen: now, lastSeen: now}
				}
			case 2:
				r.flowlets.Reset()
				clear(ref)
			case 3:
				for kk, want := range ref {
					if got := r.findFlowlet(kk).entry; got == nil || *got != want {
						t.Fatalf("op %d: flowlet %v, want %+v", i, got, want)
					}
				}
			}
			if r.flowlets.Len() != len(ref) {
				t.Fatalf("op %d: len %d, want %d", i, r.flowlets.Len(), len(ref))
			}
		}
	})
}

// fuzzFlow is the key of flow k: 16 sources × 6 source ports.
func fuzzFlow(k byte) packet.FlowKey {
	return botPacket(int(k%16), packet.HostAddr(100), uint16(k/16)).Key()
}
