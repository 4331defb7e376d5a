// Command ffvet is FastFlex's own static verifier. It type-checks the
// module from source (stdlib-only — no go/packages), builds a
// conservative whole-module call graph, and enforces the invariants
// DESIGN.md documents:
//
//	determinism     no path from a simulation entrypoint reaches a
//	                nondeterminism source (wall clock, ambient rand,
//	                goroutines, channels, sync, unordered map iteration,
//	                FP-order-sensitive reductions); offending paths print
//	                their shortest call chain
//	rank-ownership  only the reference benchmark calls Engine.After (the
//	                opaque eventsim.Rank proves every other rank was
//	                minted by a RankOwner); NewStream keys are not
//	                constants; shard state is written only by its owner
//	                or at the barrier
//	hotpath         //ffvet:hotpath functions stay free of maps,
//	                interface dispatch, and hidden allocations
//	layering        the import DAG of DESIGN.md §2
//	ppm-lint        booster blueprints are acyclic, fit every registered
//	                switch profile, and pass the equivalence-signature audit
//	mode-conflict   no two co-active boosters write one register array
//	                without an ordering edge
//	waiver          every //ffvet:ok has a reason and still suppresses
//	                something; every //ffvet:hotpath anchors a function
//
// Usage:
//
//	ffvet [-json] [./...]
//
// ffvet always analyzes the whole module containing the working
// directory; the ./... argument is accepted for familiarity. Findings
// print as file:line:col: [analyzer] message (reachability findings add
// an indented "call chain:" line; hops prefixed "~" are conservative
// dynamic-dispatch edges). With -json the report is a single JSON
// object with findings, waiver statistics, and call-graph size — the
// shape CI archives and gates on. Exit status is 1 when there are
// findings, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fastflex/internal/analysis"
)

// jsonReport is the machine-readable -json shape. Field names are part
// of the CI contract (.github/workflows/ci.yml parses them).
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Waivers  jsonWaivers   `json:"waivers"`
	Graph    jsonGraph     `json:"graph"`
}

type jsonFinding struct {
	File     string   `json:"file,omitempty"`
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

type jsonWaivers struct {
	Total int `json:"total"`
	Used  int `json:"used"`
	Stale int `json:"stale"`
}

type jsonGraph struct {
	Packages  int `json:"packages"`
	Functions int `json:"functions"`
	Edges     int `json:"edges"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffvet:", err)
		os.Exit(2)
	}
	report, err := analysis.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffvet:", err)
		os.Exit(2)
	}
	diags := append(report.Diags, analysis.Domain()...)

	if *jsonOut {
		out := jsonReport{
			Findings: []jsonFinding{},
			Waivers: jsonWaivers{
				Total: report.WaiversTotal,
				Used:  report.WaiversUsed,
				Stale: report.WaiversStale,
			},
			Graph: jsonGraph{
				Packages:  report.Packages,
				Functions: report.Functions,
				Edges:     report.Edges,
			},
		}
		for _, d := range diags {
			out.Findings = append(out.Findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message, Chain: d.Chain,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ffvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ffvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
