package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Rank ownership.
//
// Deterministic cross-shard merge (DESIGN.md, "Sharded conservative
// engine") depends on every event's rank being minted by the scheduling
// entity's RankOwner. The type system proves most of that: eventsim.Rank
// is opaque, only RankOwner.Next mints one, and ScheduleRank panics on the
// zero Rank, the one value a caller can write without an owner. This
// analyzer checks what types cannot:
//
//   - Engine.After ranks by the engine's own owner, which is meant for a
//     bare engine with no entities; every simulation event is ranked by
//     its scheduling entity's owner, so only the reference benchmark,
//     which times the calendar on a bare engine, may call After;
//   - NewStream keys must not be constants: per-entity RNG streams
//     collide when two entities share a literal key;
//   - shard state may only be written by its owning shard: writes that
//     index through a `shards` slice are confined to the barrier
//     functions (construction, setup, the exchange that drains the
//     handoff rings).
//
// All three findings are waivable with //ffvet:ok <reason>.

// rankOwnBarrier names the functions allowed to write through the
// shards slice: construction and the inter-window barrier. Keys are
// call-graph node IDs; closures inherit from their enclosing function.
var rankOwnBarrier = map[string]bool{
	"internal/netsim.New":                    true,
	"internal/netsim.(*Network).setupShards": true,
	"internal/netsim.(*Network).exchange":    true,
}

// afterCaller is the one package allowed to call Engine.After.
const afterCaller = "fastflex/bench"

// RankOwnership checks Engine.After use, stream-key uniqueness, and
// shard-write confinement.
func RankOwnership(p *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		rel := modRelPath(pkg)
		if rel == rngPackage {
			continue
		}
		below := !aboveBoundary(rel)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkRankCall(p, pkg, below, call, &diags)
				}
				return true
			})
		}
	}
	diags = append(diags, checkShardWrites(p)...)
	sortDiagnostics(diags)
	return diags
}

// checkRankCall inspects one call site for the After and stream-key
// rules; the stream-key rule applies below the concurrency boundary only.
func checkRankCall(p *Pass, pkg *Package, below bool, call *ast.CallExpr, diags *[]Diagnostic) {
	obj := calleeFunc(pkg, call)
	if obj == nil || obj.Pkg() == nil ||
		!strings.HasSuffix(obj.Pkg().Path(), rngPackage) {
		return
	}
	report := func(msg string) {
		if w := p.Waivers.use(p.Fset, call); w != nil {
			return
		}
		*diags = append(*diags, Diagnostic{
			Pos:      p.Fset.Position(call.Pos()),
			Analyzer: "rank-ownership",
			Message:  msg,
		})
	}
	switch obj.Name() {
	case "After":
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && pkg.Path != afterCaller {
			report("Engine.After ranks by the engine's own owner, which only a bare engine may use: schedule with AfterRank and the scheduling entity's RankOwner")
		}
	case "NewStream":
		if !below || len(call.Args) < 2 {
			return
		}
		if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil {
			report("NewStream key is a compile-time constant: per-entity streams sharing a literal key collide; derive the key from the entity's identity")
		}
	}
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := pkg.Info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[f]; ok {
			if m, ok := s.Obj().(*types.Func); ok {
				return m
			}
			return nil
		}
		obj, _ := pkg.Info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// checkShardWrites walks every below-boundary function body (closures
// under their own identity) and flags assignments that write through an
// element of a `shards` slice outside the barrier allowlist — unless the
// element was resolved through the shard-ownership map (`shardOf`),
// which IS the owning shard.
func checkShardWrites(p *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, fn := range p.Graph().Funcs() {
		if fn.Above || fn.Body == nil || fn.Rel == rngPackage {
			continue
		}
		if barrierFunc(fn) {
			continue
		}
		pkg := fn.Pkg
		check := func(lhs ast.Expr, node ast.Node) {
			if !writesThroughShards(pkg, lhs) {
				return
			}
			if w := p.Waivers.use(p.Fset, node); w != nil {
				return
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(node.Pos()),
				Analyzer: "rank-ownership",
				Message:  "cross-shard state write outside the handoff rings: shard state may only be mutated by its owning shard or at the exchange barrier",
			})
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closures are their own nodes
			}
			switch node := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					check(lhs, node)
				}
			case *ast.IncDecStmt:
				check(node.X, node)
			}
			return true
		})
	}
	return diags
}

// barrierFunc reports whether fn (or an enclosing function) is on the
// shard-write barrier allowlist.
func barrierFunc(fn *FuncNode) bool {
	for cur := fn; cur != nil; cur = cur.Encl {
		if rankOwnBarrier[cur.ID] {
			return true
		}
	}
	return false
}

// writesThroughShards reports whether the LHS expression dereferences an
// element of a field or variable named "shards" indexed by anything
// other than a shard-ownership lookup (an index expression over a
// "shardOf" field).
func writesThroughShards(pkg *Package, lhs ast.Expr) bool {
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.IndexExpr:
			if namedExpr(x.X) == "shards" && namedExpr(indexRoot(x.Index)) != "shardOf" {
				found = true
				return
			}
			walk(x.X)
		}
	}
	walk(lhs)
	_ = pkg
	return found
}

// namedExpr returns the terminal identifier name of an ident or
// selector expression ("n.shards" -> "shards"), or "".
func namedExpr(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// indexRoot unwraps an index expression to what is being indexed
// ("n.shardOf[id]" -> "n.shardOf"), or returns e unchanged.
func indexRoot(e ast.Expr) ast.Expr {
	if ix, ok := unparen(e).(*ast.IndexExpr); ok {
		return ix.X
	}
	return e
}
