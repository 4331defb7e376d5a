package analysis

import (
	"strings"
)

// Determinism reachability.
//
// The repo's core guarantee — byte-identical replay of a sharded
// simulation — holds only if nothing on a simulation path consults a
// nondeterminism source. ffvet v1 approximated this with per-package
// tiers and a filename whitelist for the shard runtime; v2 states it as
// a reachability theorem over the conservative call graph:
//
//	no function reachable from a simulation entrypoint contains a
//	nondeterminism sink, except the named shard-runtime functions,
//	which may contain concurrency sinks only.
//
// Entrypoints are the engine run loops and the compiled-pipeline
// execution surface. Exemptions key on package path + function identity
// (never filenames: a same-named file in another package must not
// inherit goroutine permission). Closures inherit their enclosing
// function's exemption, because the shard workers live in closures.
//
// Functions below the boundary but not (yet) reachable — constructors,
// topology builders, dead code — still get the v1 per-package residual
// rules, so the guarantee never regresses below what v1 enforced.

// simPackages hold live simulation state: full strictness regardless of
// reachability (DESIGN.md §4 requires bit-identical same-seed runs).
var simPackages = map[string]bool{
	"internal/netsim":  true,
	"internal/mode":    true,
	"internal/core":    true,
	"internal/state":   true,
	"internal/booster": true,
	"internal/place":   true,
	"internal/control": true,
}

// serialPackages are the substrate packages beneath the simulation layer
// — deterministic by construction, pure functions of injected inputs —
// so residually they only ban goroutine launches; everything on an
// actual simulation path is covered by the reachability pass.
var serialPackages = map[string]bool{
	"internal/eventsim":  true,
	"internal/dataplane": true,
	"internal/packet":    true,
	"internal/sketch":    true,
	"internal/topo":      true,
	"internal/attack":    true,
	"internal/metrics":   true,
	"internal/ppm":       true,
}

// runnerPackage sits above the boundary: it may fan goroutines and read
// the wall clock, but ambient randomness and unsorted map iteration are
// still banned, because per-seed experiment results must stay
// byte-identical whatever the worker count.
const runnerPackage = "internal/experiment"

// servePackage is the ffserved service layer, the second above-boundary
// package: workers, timeouts, and drains need goroutines, channels, and
// the wall clock, but the same residual rules as the runner apply —
// result payloads must stay byte-identical however many tenants run
// concurrently, so ambient randomness and order-leaking map iteration
// stay banned.
const servePackage = "internal/serve"

// rngPackage is the one package allowed to construct rand sources: all
// module randomness flows from eventsim seeds.
const rngPackage = "internal/eventsim"

// aboveBoundary reports whether a module-relative package path sits
// above the concurrency boundary: the experiment runner, the analyzer
// itself, binaries, examples, and the module root. Such packages are
// loaded (their sinks feed the residual rules) but are never traversed
// by reachability and never serve as dispatch candidates — nothing the
// simulation schedules can resolve to runner code.
func aboveBoundary(rel string) bool {
	if !strings.HasPrefix(rel, "internal/") {
		return true
	}
	return rel == runnerPackage || rel == servePackage || rel == "internal/analysis"
}

// modRelPath strips the module prefix: "fastflex/internal/netsim" →
// "internal/netsim". Paths outside internal/ (module root, cmd/,
// examples/) are returned as-is. Fixture packages already use
// module-relative paths.
func modRelPath(pkg *Package) string {
	p := pkg.Path
	if i := strings.Index(p, "internal/"); i >= 0 {
		return p[i:]
	}
	return p
}

// detConfig parameterizes the reachability proof so tests can remove an
// exemption or an entrypoint and watch the proof fail.
type detConfig struct {
	// entrypoints are call-graph node IDs the simulation starts from.
	entrypoints []string
	// exempt names the shard-runtime functions allowed to contain
	// concurrency-class sinks (goroutines, channels, select, sync): the
	// window-barrier protocol makes their interleavings unobservable to
	// simulation state. Value-class sinks (wall clock, ambient rand, map
	// iteration) are NOT excused by exemption. Keys are call-graph node
	// IDs — package path + function identity, never filenames — and
	// closures inherit exemption from their enclosing function.
	exempt map[string]bool
}

func defaultDetConfig() detConfig {
	return detConfig{
		entrypoints: []string{
			"internal/eventsim.(*Engine).Run",
			"internal/eventsim.(*Engine).Step",
			"internal/eventsim.(*ShardGroup).Run",
			"internal/netsim.(*Network).Run",
			"internal/dataplane.(*Switch).Process",
			"internal/core.(*Fabric).Run",
			// The fluid substrate's mutation surface: rate changes enter the
			// simulation outside the engine loop (setup code calls these
			// before Run) and their recompute/propagation path must be as
			// deterministic as the packet path — fluid state feeds shard
			// handoffs and the byte ledger.
			"internal/netsim.(*FluidFlow).Start",
			"internal/netsim.(*FluidFlow).SetRate",
			"internal/netsim.(*FluidFlow).Stop",
			// The warm-reuse reset surface: everything Reset touches must
			// restore state a later run consumes, so a nondeterministic
			// reset (map-ordered clearing into ordered structures, wall
			// clock, ambient rand) breaks reset-vs-fresh byte identity just
			// like a nondeterministic run loop would.
			"internal/core.(*Fabric).Reset",
			"internal/netsim.(*Network).Reset",
		},
		exempt: map[string]bool{
			// The windowed shard runtime: helper lifecycle, the window
			// barrier, and the atomic cursor workers claim shards by.
			"internal/eventsim.(*ShardGroup).Run":       true,
			"internal/eventsim.(*ShardGroup).start":     true,
			"internal/eventsim.(*ShardGroup).stop":      true,
			"internal/eventsim.(*ShardGroup).runWindow": true,
			"internal/eventsim.(*ShardGroup).claim":     true,
			// The SPSC handoff rings and the inter-window exchange that
			// drains them at the barrier.
			"internal/netsim.(*handoffRing).push":  true,
			"internal/netsim.(*handoffRing).drain": true,
			"internal/netsim.(*handoffRing).reset": true,
			"internal/netsim.(*Network).exchange":  true,
		},
	}
}

// Determinism runs the reachability proof plus residual per-package
// rules with the default configuration.
func Determinism(p *Pass) []Diagnostic {
	return determinism(p, defaultDetConfig())
}

func determinism(p *Pass, cfg detConfig) []Diagnostic {
	g := p.Graph()
	reach := g.Reach(cfg.entrypoints)
	var diags []Diagnostic
	for _, fn := range g.Funcs() {
		reachable := reach.Contains(fn)
		for _, s := range fn.Sinks {
			if !sinkBanned(fn, s.Kind, reachable) {
				continue
			}
			if s.Kind.Concurrency() {
				// Concurrency sinks are excused only by a shard-runtime
				// exemption, never by a comment waiver: a //ffvet:ok
				// cannot argue away a scheduler dependence.
				if exempted(fn, cfg.exempt) {
					continue
				}
			} else if s.node != nil {
				if w := p.Waivers.use(p.Fset, s.node); w != nil {
					continue
				}
			}
			d := Diagnostic{
				Pos:      p.Fset.Position(s.Pos),
				Analyzer: "determinism",
				Message:  s.Msg,
			}
			if reachable {
				d.Chain = reach.Chain(fn)
			}
			diags = append(diags, d)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sinkBanned decides whether a sink of the given kind inside fn is
// banned: full strictness for reachable or sim-package code, residual
// tier rules elsewhere.
func sinkBanned(fn *FuncNode, k SinkKind, reachable bool) bool {
	// Rand-source construction is a module-wide rule independent of
	// reachability: only eventsim may mint sources, since a private
	// source breaks the single-RNG invariant even when seeded.
	if k == SinkRandSource {
		return strings.HasPrefix(fn.Rel, "internal/") && fn.Rel != rngPackage
	}
	if reachable || simPackages[fn.Rel] {
		return true
	}
	switch {
	case serialPackages[fn.Rel]:
		return k == SinkGoroutine
	case fn.Rel == runnerPackage, fn.Rel == servePackage:
		return k == SinkGlobalRand || k == SinkMapRange || k == SinkFPReduce
	}
	return false
}

// exempted reports whether fn or any enclosing function is in the
// exemption set.
func exempted(fn *FuncNode, exempt map[string]bool) bool {
	for cur := fn; cur != nil; cur = cur.Encl {
		if exempt[cur.ID] {
			return true
		}
	}
	return false
}
