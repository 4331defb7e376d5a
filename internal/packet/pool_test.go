package packet

import (
	"reflect"
	"testing"
)

// TestPoolOwnership pins the Pool contract: only pool-born packets are
// recycled, a pooled packet keeps one probe buffer for life (and its State
// capacity), recycling forgets everything else, and clones share nothing
// with their source.
func TestPoolOwnership(t *testing.T) {
	var pool Pool
	pool.Put(&Packet{Proto: ProtoUDP})
	pool.Put((&Packet{Proto: ProtoProbe, Probe: &ProbeInfo{Kind: ProbeUtil}}).Clone())
	pool.Put(nil)
	if pool.Free() != 0 {
		t.Fatalf("pool accepted %d packets it did not hand out", pool.Free())
	}

	pr := pool.GetProbe()
	if pr.Proto != ProtoProbe || pr.Probe == nil || !reflect.DeepEqual(pr.Probe, &ProbeInfo{}) {
		t.Fatalf("GetProbe returned %+v / %+v, want a zeroed probe layer", pr, pr.Probe)
	}
	buf := pr.Probe
	pr.Probe.Kind, pr.Probe.Seq = ProbeState, 7
	pr.Probe.State = append(pr.Probe.State, make([]byte, 100)...)
	pr.Src, pr.Suspicion = RouterAddr(1), 2
	pr.Flow()

	cl := pool.Clone(pr)
	if cl.Probe == buf || &cl.Probe.State[0] == &pr.Probe.State[0] {
		t.Fatal("pooled clone aliases its source's probe layer")
	}
	if cl.Probe.Seq != 7 || len(cl.Probe.State) != 100 || cl.Src != pr.Src || !cl.flowOK {
		t.Fatalf("pooled clone lost fields: %+v / %+v", cl, cl.Probe)
	}

	pool.Put(pr)
	if pool.Free() != 1 || pool.News != 2 {
		t.Fatalf("Free=%d News=%d after recycling one of two pool-born packets", pool.Free(), pool.News)
	}
	again := pool.Get()
	if again != pr || *again != (Packet{pooled: true, probeBuf: buf}) {
		t.Fatalf("recycled packet not zeroed: %+v", again)
	}
	pool.Put(again)
	pr2 := pool.GetProbe()
	if pr2.Probe != buf {
		t.Fatal("a recycled packet did not reuse its probe buffer")
	}
	if pr2.Probe.Kind != 0 || pr2.Probe.Seq != 0 || len(pr2.Probe.State) != 0 || cap(pr2.Probe.State) < 100 {
		t.Fatalf("reused probe buffer not emptied in place: %+v (cap %d)", pr2.Probe, cap(pr2.Probe.State))
	}

	// A nil pool is the heap.
	var none *Pool
	h := none.GetProbe()
	none.Put(h)
	if h.pooled || h.Probe == nil || none.Clone(h).pooled {
		t.Fatal("nil pool handed out pooled packets")
	}
}
