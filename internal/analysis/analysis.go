package analysis

import "go/token"

// Pass is the shared state one ffvet run hands to every analyzer: the
// loaded module, the waiver registry (shared so the stale-waiver pass can
// see which directives actually suppressed something), and the lazily
// built whole-module call graph.
type Pass struct {
	Fset    *token.FileSet
	Pkgs    []*Package
	Waivers *WaiverSet

	graph *CallGraph
}

// NewPass builds a pass over the given packages, scanning every file for
// ffvet directives. Malformed directives (a bare //ffvet:ok) are recorded
// as findings on the waiver set and reported by the waiver analyzer.
func NewPass(fset *token.FileSet, pkgs []*Package) *Pass {
	p := &Pass{Fset: fset, Pkgs: pkgs, Waivers: NewWaiverSet()}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			p.Waivers.scanFile(fset, file)
		}
	}
	return p
}

// Graph returns the conservative static call graph of the loaded
// packages, building it on first use. All analyzers share one graph.
func (p *Pass) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

// An Analyzer inspects typechecked packages and reports findings.
type Analyzer struct {
	Name string
	Run  func(p *Pass) []Diagnostic
}

// Analyzers is the full ffvet suite, in execution order. The waiver
// analyzer must run last: a waiver is stale exactly when no earlier
// analyzer consumed it.
func Analyzers() []Analyzer {
	return []Analyzer{
		{Name: "determinism", Run: Determinism},
		{Name: "rank-ownership", Run: RankOwnership},
		{Name: "hotpath", Run: Hotpath},
		{Name: "layering", Run: Layering},
		{Name: "ppm-lint", Run: PPMLint},
		{Name: "mode-conflict", Run: ModeConflict},
		{Name: "waiver", Run: Waiver},
	}
}

// Report is the result of a full ffvet run: the findings plus the
// machine-readable statistics the -json output and CI gates consume.
type Report struct {
	Diags []Diagnostic
	// Waivers counts //ffvet:ok directives: total in tree, how many
	// suppressed a finding this run, and how many are stale.
	WaiversTotal int
	WaiversUsed  int
	WaiversStale int
	// Call-graph size, for the -json report and the benchmark.
	Packages  int
	Functions int
	Edges     int
}

// Run loads the module rooted at root and executes every analyzer over
// its non-test packages, in suite order, sharing one Pass. Domain-level
// findings (Domain) are appended by the ffvet command, not here, so tests
// can run the two halves independently.
func Run(root string) (*Report, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	p := NewPass(mod.Fset, mod.Packages())
	var diags []Diagnostic
	for _, a := range Analyzers() {
		diags = append(diags, a.Run(p)...)
	}
	sortDiagnostics(diags)
	g := p.Graph()
	r := &Report{
		Diags:     diags,
		Packages:  len(p.Pkgs),
		Functions: len(g.Nodes),
		Edges:     g.EdgeCount(),
	}
	for _, w := range p.Waivers.All() {
		r.WaiversTotal++
		if w.Used {
			r.WaiversUsed++
		} else {
			r.WaiversStale++
		}
	}
	return r, nil
}
