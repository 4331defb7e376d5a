package core

import (
	"fmt"

	"fastflex/internal/state"
)

// snapshotBuildEpochs records each switch's install epoch and router FIB
// version at the end of New: the epochs are the reference Reset compares
// against to detect reconfiguration, the FIB versions the reference it
// compares against to decide whether routes must be reinstalled at all.
func (f *Fabric) snapshotBuildEpochs() {
	sws := f.Net.G.Switches()
	f.buildEpochs = make([]uint64, len(sws))
	f.buildFIBs = make([]uint64, len(sws))
	for i, sw := range sws {
		f.buildEpochs[i] = f.Net.Switch(sw).Epoch()
		f.buildFIBs[i] = f.Net.Router(sw).FIBVersion()
	}
}

// fibsClean reports whether every switch router's FIB is untouched since
// the build-time snapshot: no reactive TE cycle or manual SetRoute ran, so
// the tables still hold exactly New's deterministic static install.
func (f *Fabric) fibsClean() bool {
	sws := f.Net.G.Switches()
	for i, sw := range sws {
		if f.Net.Router(sw).FIBVersion() != f.buildFIBs[i] {
			return false
		}
	}
	return true
}

// Reset returns a fully built fabric to its pre-run state, re-seeded at
// seed, so it can be run again without rebuilding: the network rewinds
// (netsim.Network.Reset), every switch and its installed PPMs rewind
// (dataplane.Switch.ResetRun), the TE controller's static routes and the
// inter-switch router routes reinstall — but only on routers whose FIB
// actually mutated during the run (a reactive TE cycle); untouched tables
// still hold exactly the build-time install and are kept as-is — the mode
// log clears, and the telemetry heartbeat re-arms. Build work that depends
// only on the topology and configuration — the merged dataflow, the
// placement, the compiled pipeline cache — survives untouched; that is the
// whole saving.
//
// The contract, pinned by experiment's reset-vs-fresh goldens: running a
// reset fabric produces byte-identical results to running a freshly built
// fabric with the same configuration and seed, because every event is
// ranked by its owner's key and every owner and RNG stream is rewound, so
// the order the surviving tickers are re-armed in does not matter.
//
// Reset fails — mutating nothing — on fabrics whose installed program set
// changed since build (a ScaleOut repurpose, a manual Install/Uninstall):
// it can rewind run state, not reconfiguration. Callers treat an error as
// "rebuild from scratch".
func (f *Fabric) Reset(seed int64) error {
	if f.Scaler.Repurposed > 0 {
		return fmt.Errorf("core: fabric was repurposed %d time(s) since build; reset cannot rewind reconfiguration",
			f.Scaler.Repurposed)
	}
	sws := f.Net.G.Switches()
	for i, sw := range sws {
		if got := f.Net.Switch(sw).Epoch(); got != f.buildEpochs[i] {
			return fmt.Errorf("core: switch %d install epoch %d differs from build-time %d; program set changed since build",
				sw, got, f.buildEpochs[i])
		}
	}
	fibClean := f.fibsClean()
	for _, sw := range sws {
		if err := f.Net.Switch(sw).ResetRun(); err != nil {
			return err
		}
	}
	f.Net.Reset(seed)
	f.Cfg.Net.Seed = seed
	f.TE.ResetRun()
	if !fibClean {
		// A reactive TE cycle rewrote routes mid-run: tear the FIBs down
		// and replay New's install. Both installs are deterministic pure
		// functions of the topology, so the result is byte-identical to a
		// fresh build; re-snapshot so the next reset can skip again.
		for _, sw := range sws {
			f.Net.Router(sw).ClearRoutes()
		}
		f.TE.InstallStatic()
		state.RouterRoutesForSwitches(f.Net)
		for i, sw := range sws {
			f.buildFIBs[i] = f.Net.Router(sw).FIBVersion()
		}
	}
	for i := range f.modeLog {
		f.modeLog[i] = f.modeLog[i][:0]
	}
	if f.heartbeat != nil {
		f.heartbeat.Rearm()
	}
	return nil
}
