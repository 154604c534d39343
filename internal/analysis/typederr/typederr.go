// Package typederr requires errors constructed in the gate-boundary
// package (internal/stage) to be the typed kinds callers can dispatch
// on with errors.As — GateError, PanicError, AuditError, PolicyError —
// rather than bare fmt.Errorf or errors.New values. Bare errors erase
// the machine-readable failure taxonomy the recovery policies and the
// CLI exit codes are built on (docs/ROBUSTNESS.md).
//
// fmt.Errorf with a %w verb is accepted: wrapping preserves the typed
// cause for errors.As. Anything else needs a //mclegal:typederr <why>
// directive.
package typederr

import (
	"go/ast"
	"go/types"
	"strings"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the typederr check.
var Analyzer = &framework.Analyzer{
	Name:      "typederr",
	Doc:       "require typed errors (or %w wrapping) at the stage gate boundary (suppress with //mclegal:typederr)",
	Run:       run,
	Scope:     scope.GateBoundary,
	Directive: "typederr",
	Example:   "//mclegal:typederr this error never crosses the gate; it is consumed by the retry loop above",
}

func run(pass *framework.Pass) error {
	if !framework.PathMatchesAny(pass.Pkg.Path(), scope.GateBoundary) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "errors" && fn.Name() == "New":
				if !pass.Suppressed("typederr", call.Pos()) {
					pass.Reportf(call.Pos(),
						"errors.New crosses the stage gate boundary untyped: return a typed error (GateError, PanicError, AuditError, PolicyError) or justify with //mclegal:typederr <why>")
				}
			case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
				if wrapsCause(call) || pass.Suppressed("typederr", call.Pos()) {
					return true
				}
				pass.Reportf(call.Pos(),
					"bare fmt.Errorf crosses the stage gate boundary: return a typed error (GateError, PanicError, AuditError, PolicyError) or wrap a typed cause with %%w")
			}
			return true
		})
	}
	return nil
}

// wrapsCause reports whether the fmt.Errorf format literal contains a
// %w verb (a dynamic format cannot be proven to wrap and is flagged).
func wrapsCause(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	return ok && strings.Contains(lit.Value, "%w")
}
