// Package maporder flags range statements over maps in the
// deterministic core packages. Go randomizes map iteration order, so
// any map range whose effects depend on order silently breaks the
// byte-identical-output guarantee the placement fingerprint
// (TestPlacementFingerprint) and the parallel-regression suite rely
// on.
//
// Two shapes are accepted:
//
//   - key/value collection: a loop whose whole body is a single
//     `s = append(s, k)` (or `s = append(s, v)`) where s is later
//     passed to a sort call in the same block — the canonical
//     collect-then-sort idiom;
//   - a //mclegal:ordered <why> directive on the loop, for ranges whose
//     effects are order-free for reasons the analyzer does not prove
//     (an integer count, stores keyed by the range key).
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the maporder check.
var Analyzer = &framework.Analyzer{
	Name:      "maporder",
	Doc:       "flag range-over-map in deterministic packages unless it collects-then-sorts (or is justified with //mclegal:ordered)",
	Run:       run,
	Scope:     scope.DeterministicCore,
	Directive: "ordered",
	Example:   "//mclegal:ordered each iteration stores only under its own range key, so no store depends on another iteration",
}

func run(pass *framework.Pass) error {
	if !framework.PathMatchesAny(pass.Pkg.Path(), scope.DeterministicCore) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				checkRange(pass, rs, block.List[i+1:])
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *framework.Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Suppressed("ordered", rs.Pos()) {
		return
	}
	if isCollectThenSort(pass, rs, following) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map %s in deterministic package %s: iteration order is randomized; collect and sort the keys first, or justify with //mclegal:ordered <why>",
		types.ExprString(rs.X), pass.Pkg.Path())
}

// isCollectThenSort recognizes the blessed idiom: the loop body is
// exactly `s = append(s, k)` collecting the range key (or value), and a
// later statement in the same block sorts s.
func isCollectThenSort(pass *framework.Pass, rs *ast.RangeStmt, following []ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	target, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	targetObj := pass.TypesInfo.Uses[target]
	if targetObj == nil {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis != token.NoPos {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || pass.TypesInfo.Uses[first] != targetObj {
		return false
	}
	// Every appended element must be the range key or value itself, so
	// the collected slice is a pure projection of the map's keys.
	keyObj := rangeVarObj(pass, rs.Key)
	valObj := rangeVarObj(pass, rs.Value)
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || (obj != keyObj && obj != valObj) {
			return false
		}
	}
	return sortedLater(pass, targetObj, following)
}

// rangeVarObj resolves the object of a range key/value identifier.
func rangeVarObj(pass *framework.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// sortedLater reports whether a following statement passes obj to a
// sort/slices sorting function.
func sortedLater(pass *framework.Pass, obj types.Object, following []ast.Stmt) bool {
	found := false
	for _, stmt := range following {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "sort", "slices":
			default:
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == obj {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
