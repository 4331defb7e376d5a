package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var repoRoot = func() string {
	abs, err := filepath.Abs("../..")
	if err != nil {
		panic(err)
	}
	return abs
}()

var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func loadModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule(repoRoot) })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

// wantDiag is one expectation parsed from a fixture's
// `// want <analyzer> "<substring>"` comments.
type wantDiag struct{ analyzer, substr string }

var wantRe = regexp.MustCompile(`// want ([a-z-]+) "([^"]+)"`)

func parseWants(t *testing.T, file string) map[int][]wantDiag {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	out := make(map[int][]wantDiag)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			out[i+1] = append(out[i+1], wantDiag{analyzer: m[1], substr: m[2]})
		}
	}
	return out
}

// fixturePass type-checks one testdata file at the claimed module import
// path and wraps it in a fresh Pass.
func fixturePass(t *testing.T, importPath, file string) *Pass {
	t.Helper()
	m := loadModule(t)
	pkg, err := m.CheckFixture(importPath, filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("CheckFixture(%s): %v", file, err)
	}
	return NewPass(m.Fset, []*Package{pkg})
}

// runFixture runs a single analyzer over one fixture file.
func runFixture(t *testing.T, importPath, file string,
	run func(*Pass) []Diagnostic) []Diagnostic {
	t.Helper()
	return run(fixturePass(t, importPath, file))
}

// checkFixture matches an analyzer's diagnostics against the fixture's
// want comments, both ways: no unexpected findings, no unmet wants.
func checkFixture(t *testing.T, importPath, file string,
	run func(*Pass) []Diagnostic) {
	t.Helper()
	diags := runFixture(t, importPath, file, run)
	wants := parseWants(t, filepath.Join("testdata", file))
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			hit := false
			for _, d := range diags {
				if d.Pos.Line == line && d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
					hit = true
				}
			}
			if !hit {
				t.Errorf("%s:%d: want [%s] diagnostic containing %q, got none", file, line, w.analyzer, w.substr)
			}
		}
	}
}

func TestDeterminismFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/netsim", "det_bad.go", Determinism)
	checkFixture(t, "fastflex/internal/netsim", "det_ok.go", Determinism)
}

// TestDeterminismBoundaryFixtures pins the analyzer's knowledge of the
// concurrency boundary: the runner layer (internal/experiment) may spawn
// goroutines and read the wall clock but not use ambient randomness or
// leak map order; the serial substrate (internal/dataplane et al.) gets
// only the goroutine ban for unreachable code.
func TestDeterminismBoundaryFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/experiment", "det_runner.go", Determinism)
	checkFixture(t, "fastflex/internal/dataplane", "det_serial.go", Determinism)
}

// TestDeterminismShardRuntimeFixtures pins the shard-runtime exemptions:
// the named functions — (*ShardGroup).start et al. in eventsim,
// (*handoffRing).push/drain in netsim — may contain concurrency-class
// sinks, closures inherit the exemption from their enclosing function,
// value-class bans (time.Now) still apply inside exempt functions, and
// the exemption keys on package path + function identity, so a file
// named shard.go declaring the same method identity in another package
// is still checked under the normal rules.
func TestDeterminismShardRuntimeFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/eventsim", "tier4/shard.go", Determinism)
	checkFixture(t, "fastflex/internal/netsim", "tier4net/shard.go", Determinism)
	checkFixture(t, "fastflex/internal/dataplane", "tier4bad/shard.go", Determinism)
}

// TestDeterminismReachability pins the reachability model on a serial
// package: the same map iteration is flagged when a simulation
// entrypoint reaches it and silent when nothing does.
func TestDeterminismReachability(t *testing.T) {
	checkFixture(t, "fastflex/internal/dataplane", "det_reach_bad.go", Determinism)
	checkFixture(t, "fastflex/internal/dataplane", "det_reach_ok.go", Determinism)
}

// TestDeterminismFluidReachability pins the fluid substrate's entry into
// the proof: (*FluidFlow).SetRate is an entrypoint, so an unordered
// floating-point reduction in a fluid recompute is flagged with the
// SetRate -> recompute chain, and the dense index-ordered twin is silent.
func TestDeterminismFluidReachability(t *testing.T) {
	checkFixture(t, "fastflex/internal/netsim", "det_reach_fluid_bad.go", Determinism)
	checkFixture(t, "fastflex/internal/netsim", "det_reach_fluid_ok.go", Determinism)
	diags := runFixture(t, "fastflex/internal/netsim", "det_reach_fluid_bad.go", Determinism)
	var chain []string
	for _, d := range diags {
		if strings.Contains(d.Message, "floating-point reduction") {
			chain = d.Chain
		}
	}
	want := []string{
		"internal/netsim.(*FluidFlow).SetRate",
		"internal/netsim.(*fluidLink).recompute",
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

// TestDeterminismResetReachability pins the warm-reuse reset surface's
// entry into the proof: (*Fabric).Reset is an entrypoint, so map-ordered
// clearing below it is flagged with the Reset -> rewind chain, while a
// (*Network).Reset rewinding dense index-ordered slices is silent.
func TestDeterminismResetReachability(t *testing.T) {
	checkFixture(t, "fastflex/internal/core", "det_reach_reset_bad.go", Determinism)
	checkFixture(t, "fastflex/internal/netsim", "det_reach_reset_ok.go", Determinism)
	diags := runFixture(t, "fastflex/internal/core", "det_reach_reset_bad.go", Determinism)
	var chain []string
	for _, d := range diags {
		if strings.Contains(d.Message, "map iteration") {
			chain = d.Chain
		}
	}
	want := []string{
		"internal/core.(*Fabric).Reset",
		"internal/core.(*Fabric).rewind",
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

// TestDeterminismReachabilityChain asserts the diagnostic carries the
// shortest entrypoint-to-sink call chain.
func TestDeterminismReachabilityChain(t *testing.T) {
	diags := runFixture(t, "fastflex/internal/dataplane", "det_reach_bad.go", Determinism)
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", diags)
	}
	want := []string{
		"internal/dataplane.(*Switch).Process",
		"internal/dataplane.(*Switch).classify",
	}
	got := diags[0].Chain
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
}

// TestDeterminismExemptionDeletion is the acceptance gate for the
// exemption mechanism: removing one shard-runtime exemption from the
// configuration must make the proof fail on the real tree, with a chain
// from an entrypoint ending at the function that holds the sink — the
// helper launch in start, the atomic claim cursor in claim.
func TestDeterminismExemptionDeletion(t *testing.T) {
	m := loadModule(t)
	p := NewPass(m.Fset, m.Packages())
	for _, tc := range []struct{ victim, sink string }{
		{"internal/eventsim.(*ShardGroup).start", "goroutine launch"},
		{"internal/eventsim.(*ShardGroup).claim", "sync/atomic"},
	} {
		cfg := defaultDetConfig()
		if !cfg.exempt[tc.victim] {
			t.Fatalf("%s missing from the default exemption set", tc.victim)
		}
		delete(cfg.exempt, tc.victim)
		diags := determinism(p, cfg)
		failed := false
		for _, d := range diags {
			n := len(d.Chain)
			if strings.Contains(d.Message, tc.sink) && n > 0 && strings.HasSuffix(d.Chain[n-1], tc.victim) {
				failed = true // proof failed exactly as required
			}
		}
		if !failed {
			t.Errorf("deleting the %s exemption produced no %q finding with a chain ending there; got %v", tc.victim, tc.sink, diags)
		}
	}
}

func TestDeterminismBareWaiver(t *testing.T) {
	p := fixturePass(t, "fastflex/internal/netsim", "det_bare.go")
	if diags := Determinism(p); len(diags) != 0 {
		t.Fatalf("determinism should stay silent (loop feeds a sort), got %v", diags)
	}
	diags := Waiver(p)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "requires a reason") {
		t.Fatalf("want exactly one bare-waiver diagnostic, got %v", diags)
	}
}

// TestStaleWaivers pins the waiver lifecycle: a waiver the analyzers
// never consume is reported stale, a consumed one stays silent, and a
// floating //ffvet:hotpath directive is reported.
func TestStaleWaivers(t *testing.T) {
	p := fixturePass(t, "fastflex/internal/netsim", "waiver_stale.go")
	_ = Determinism(p) // consumes the used waiver
	_ = Hotpath(p)
	diags := Waiver(p)
	var stale, floating int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "stale ffvet:ok waiver (keys are sorted below)"):
			stale++
		case strings.Contains(d.Message, "ffvet:hotpath directive is not attached"):
			floating++
		case strings.Contains(d.Message, "order-independent"):
			t.Errorf("used waiver reported stale: %s", d)
		default:
			t.Errorf("unexpected waiver diagnostic: %s", d)
		}
	}
	if stale != 1 || floating != 1 {
		t.Fatalf("want 1 stale + 1 floating finding, got %v", diags)
	}
}

func TestRankOwnershipFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/netsim", "rankown_bad.go", RankOwnership)
	checkFixture(t, "fastflex/internal/netsim", "rankown_ok.go", RankOwnership)
}

// TestUnmintedRankDoesNotCompile pins the type half of rank ownership: a
// rank that no RankOwner minted is a type error, not an analyzer finding.
func TestUnmintedRankDoesNotCompile(t *testing.T) {
	m := loadModule(t)
	_, err := m.CheckFixture("fastflex/internal/netsim", filepath.Join("testdata", "rankown_unminted.go"))
	if err == nil || !strings.Contains(err.Error(), "eventsim.Rank") {
		t.Fatalf("CheckFixture(rankown_unminted.go) = %v, want a type error naming eventsim.Rank", err)
	}
}

func TestHotpathFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/dataplane", "hotpath_bad.go", Hotpath)
	checkFixture(t, "fastflex/internal/dataplane", "hotpath_ok.go", Hotpath)
}

// TestHotpathLoopFixtures pins the statement-level annotation form: a
// //ffvet:hotpath directly above a for/range statement enforces the map
// and interface bans inside that loop body only.
func TestHotpathLoopFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/dataplane", "hotpath_loop_bad.go", Hotpath)
	checkFixture(t, "fastflex/internal/dataplane", "hotpath_loop_ok.go", Hotpath)
}

// TestHotpathLoopAttachment proves the waiver analyzer treats a
// loop-attached directive as anchored: running Hotpath before Waiver over
// the loop fixtures must yield no floating-directive findings.
func TestHotpathLoopAttachment(t *testing.T) {
	for _, file := range []string{"hotpath_loop_bad.go", "hotpath_loop_ok.go"} {
		p := fixturePass(t, "fastflex/internal/dataplane", file)
		_ = Hotpath(p)
		for _, d := range Waiver(p) {
			t.Errorf("%s: unexpected waiver diagnostic: %s", file, d)
		}
	}
}

// TestHotpathAnnotationsPresent pins the annotation set: the per-packet
// entry points the compiled-forwarding-plane refactor flattened must stay
// annotated, so a future edit cannot silently drop the enforcement.
func TestHotpathAnnotationsPresent(t *testing.T) {
	m := loadModule(t)
	want := map[string]string{
		"Process": "fastflex/internal/dataplane",
		"Lookup":  "fastflex/internal/dataplane",
		"Step":    "fastflex/internal/eventsim",
	}
	found := make(map[string]bool)
	for _, pkg := range m.Packages() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, annotated := hotpathAnnotation(m.Fset, fn); !annotated {
					continue
				}
				if want[fn.Name.Name] == pkg.Path {
					found[fn.Name.Name] = true
				}
			}
		}
	}
	for name, path := range want {
		if !found[name] {
			t.Errorf("no //ffvet:hotpath annotation on %s in %s", name, path)
		}
	}
}

func TestLayeringFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/dataplane", "layer_bad.go", Layering)
	checkFixture(t, "fastflex/internal/dataplane", "layer_ok.go", Layering)
}

func TestPPMLintFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/core", "ppmlint_bad.go", PPMLint)
	checkFixture(t, "fastflex/internal/core", "ppmlint_ok.go", PPMLint)
}

func TestModeConflictFixtures(t *testing.T) {
	checkFixture(t, "fastflex/internal/core", "modeconflict_bad.go", ModeConflict)
	checkFixture(t, "fastflex/internal/core", "modeconflict_ok.go", ModeConflict)
}

// TestRealTreeClean is the gate the repository itself must pass: every
// analyzer and the domain verifiers, zero findings.
func TestRealTreeClean(t *testing.T) {
	report, err := Run(repoRoot)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range report.Diags {
		t.Errorf("finding in tree: %s", d)
	}
	for _, d := range Domain() {
		t.Errorf("domain finding: %s", d)
	}
	if report.WaiversStale != 0 {
		t.Errorf("stale waivers in tree: %d", report.WaiversStale)
	}
	if report.Functions == 0 || report.Edges == 0 {
		t.Errorf("degenerate call graph: %d functions, %d edges", report.Functions, report.Edges)
	}
}

// TestLayerTableCoversModule pins the layer table to reality: every
// internal package in the tree must be listed, so a new package cannot
// silently dodge the purity rules.
func TestLayerTableCoversModule(t *testing.T) {
	m := loadModule(t)
	for _, pkg := range m.Packages() {
		rel := modRelPath(pkg)
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		if _, ok := layerTable[rel]; !ok {
			t.Errorf("package %s missing from the layering table", rel)
		}
	}
}
