package serve

import (
	"runtime"
	"testing"
	"time"

	"fastflex/internal/experiment"
)

// TestIdleFabricRetainedHeap pins the memory an idle warm Figure-2
// FastFlex fabric costs the pool: flow and flowlet tables hold host memory
// for the flows a run saw, not for the capacity the modeled hardware
// provisions. It builds fabrics the way serve-mix's cold jobs do (a 3 s
// run, attack from 1 s; bot counts from 41 up give each its own key), keeps
// them all idle in the pool, and reads the heap they retain after a full
// collection. With every table preallocated in full a fabric retained
// ~9.7 MB.
func TestIdleFabricRetainedHeap(t *testing.T) {
	const fabrics, maxMB = 6, 5.0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := newEnginePool(fabrics)
	for i := 0; i < fabrics; i++ {
		experiment.Figure3(experiment.Figure3Config{
			Defense: experiment.DefenseFastFlex,
			Users:   8, Bots: 41 + i, Servers: 8,
			Duration:    3 * time.Second,
			AttackStart: time.Second,
			Seed:        1,
			Fabrics:     p,
		})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if st := p.stats(); st.size != fabrics {
		t.Fatalf("pool holds %d idle fabrics, want %d", st.size, fabrics)
	}
	runtime.KeepAlive(p)
	mb := float64(int64(m1.HeapInuse)-int64(m0.HeapInuse)) / fabrics / (1 << 20)
	t.Logf("retained heap per idle Figure-2 FastFlex fabric: %.2f MB", mb)
	if mb > maxMB {
		t.Errorf("an idle fabric retains %.2f MB of heap, want <= %.1f MB", mb, maxMB)
	}
}
