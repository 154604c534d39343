// Package maporder flags range statements over maps in the
// deterministic core packages. Go randomizes map iteration order, so
// any map range whose effects depend on order silently breaks the
// byte-identical-output guarantee the placement fingerprint
// (TestPlacementFingerprint) and the parallel-regression suite rely
// on.
//
// Three shapes are accepted without a directive:
//
//   - key/value collection: a loop whose whole body is a single
//     `s = append(s, k)` (or `s = append(s, v)`) where s is later
//     passed to a sort call in the same block — the canonical
//     collect-then-sort idiom;
//   - order-insensitive reduction: every body statement folds into an
//     accumulator through a commutative, associative integer operation
//     (`+=`, `-=`, `*=`, `|=`, `&=`, `^=`, `++`/`--`, `x = min(x, e)`,
//     `if v < best { best = v }`) or inserts into a set/map keyed so
//     collisions cannot disagree — with call-free operands, so no
//     iteration can observe another's order;
//   - a //mclegal:ordered <why> directive on the loop, for ranges whose
//     effects are order-free for reasons the analyzer cannot prove
//     (e.g. accumulating into a structure it does not model).
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
	Doc:       "flag range-over-map in deterministic packages unless it collects-then-sorts or is a provably order-insensitive reduction (or justified with //mclegal:ordered)",
	Run:       run,
	Scope:     scope.DeterministicCore,
	Directive: "ordered",
	Example:   "//mclegal:ordered map-to-map copy; the copy's insertion order is never observed",
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
	if isOrderInsensitiveReduction(pass, rs) {
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

// isOrderInsensitiveReduction reports whether every statement in the
// loop body folds into an accumulator through an operation whose result
// is the same under any iteration order, with call-free operands.
//
// Accepted statement shapes (x is the accumulator, e is a pure operand):
//
//	x += e  x -= e  x *= e  x |= e  x &= e  x ^= e   (integer x)
//	x++  x--                                         (integer x)
//	s[i] += e  s[i]++ ...                            (map cell, same ops)
//	x = min(x, e)  x = max(x, e)                     (builtin min/max)
//	if e < x { x = e }                               (running min/max)
//	s[k] = e                                         (range-key index:
//	                                                  cells are distinct)
//	s[i] = <constant>                                (colliding cells
//	                                                  agree)
//
// Each accumulator may appear in exactly one statement, and no operand
// may read any accumulator — otherwise one iteration could observe a
// partial fold from another (`x += k; y += x` accumulates prefix sums
// of x, which depend on order). Operands must be call-free apart from
// type conversions and the pure builtins (len, cap, min, max, real,
// imag): a called function could consume iteration order even when the
// folded value does not. Float and string accumulators are excluded —
// float addition is not associative and string concatenation is not
// commutative.
func isOrderInsensitiveReduction(pass *framework.Pass, rs *ast.RangeStmt) bool {
	body := rs.Body.List
	if len(body) == 0 {
		return false
	}
	// First pass: every statement must name a distinct accumulator.
	accs := make(map[types.Object]bool, len(body))
	for _, stmt := range body {
		obj := reductionTarget(pass, stmt)
		if obj == nil || accs[obj] {
			return false
		}
		accs[obj] = true
	}
	// Second pass: validate each statement's shape with the full
	// accumulator set known, so cross-statement reads are rejected.
	for _, stmt := range body {
		if !isReductionStmt(pass, rs, stmt, accs) {
			return false
		}
	}
	return true
}

// reductionTarget resolves the accumulator a candidate reduction
// statement folds into: the assigned identifier, or the map variable
// for indexed stores. Nil means the statement is not a reduction shape.
func reductionTarget(pass *framework.Pass, stmt ast.Stmt) types.Object {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return lvalueBase(pass, s.X)
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return nil
		}
		return lvalueBase(pass, s.Lhs[0])
	case *ast.IfStmt:
		if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
			return nil
		}
		assign, ok := s.Body.List[0].(*ast.AssignStmt)
		if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 {
			return nil
		}
		return lvalueBase(pass, assign.Lhs[0])
	}
	return nil
}

// lvalueBase resolves an accumulator lvalue: a plain identifier, or the
// map variable of a single-level index expression.
func lvalueBase(pass *framework.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.IndexExpr:
		id, ok := e.X.(*ast.Ident)
		if !ok {
			return nil
		}
		if _, isMap := pass.TypesInfo.Types[e.X].Type.Underlying().(*types.Map); !isMap {
			return nil
		}
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

// commutativeAssignOps are the op-assign tokens whose repeated
// application folds to the same value under any order (on integers).
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.AND_ASSIGN: true,
	token.XOR_ASSIGN: true,
}

func isReductionStmt(pass *framework.Pass, rs *ast.RangeStmt, stmt ast.Stmt, accs map[types.Object]bool) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return isIntegerLvalue(pass, s.X) && pureIndexOf(pass, s.X, accs)

	case *ast.AssignStmt:
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		if commutativeAssignOps[s.Tok] {
			return isIntegerLvalue(pass, lhs) &&
				pureIndexOf(pass, lhs, accs) &&
				pureOperand(pass, rhs, accs)
		}
		if s.Tok != token.ASSIGN {
			return false
		}
		if id, ok := lhs.(*ast.Ident); ok {
			return isMinMaxFold(pass, id, rhs, accs)
		}
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			return isSetInsert(pass, rs, ix, rhs, accs)
		}
		return false

	case *ast.IfStmt:
		return isCompareFold(pass, s, accs)
	}
	return false
}

// isIntegerLvalue reports whether the folded cell has integer type:
// float folds are not associative and string folds not commutative.
func isIntegerLvalue(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// pureIndexOf validates the index of an indexed accumulator (trivially
// true for plain identifiers).
func pureIndexOf(pass *framework.Pass, e ast.Expr, accs map[types.Object]bool) bool {
	if ix, ok := e.(*ast.IndexExpr); ok {
		return pureOperand(pass, ix.Index, accs)
	}
	return true
}

// isMinMaxFold matches `x = min(x, e...)` / `x = max(x, e...)` with the
// builtin min/max: idempotent and commutative, so order-free.
func isMinMaxFold(pass *framework.Pass, lhs *ast.Ident, rhs ast.Expr, accs map[types.Object]bool) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || (fn.Name != "min" && fn.Name != "max") {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	target := pass.TypesInfo.Uses[lhs]
	selfSeen := false
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == target {
			selfSeen = true
			continue
		}
		if !pureOperand(pass, arg, accs) {
			return false
		}
	}
	return target != nil && selfSeen
}

// isSetInsert matches map stores whose colliding writes cannot
// disagree: either the cell is keyed by the range key (every iteration
// owns a distinct cell), or the stored value is a constant (colliding
// iterations all write the same thing — the `seen[v] = true` set
// idiom).
func isSetInsert(pass *framework.Pass, rs *ast.RangeStmt, lhs *ast.IndexExpr, rhs ast.Expr, accs map[types.Object]bool) bool {
	if !pureOperand(pass, lhs.Index, accs) || !pureOperand(pass, rhs, accs) {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
		return true
	}
	if lit, ok := rhs.(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
		return true // struct{}{} set-membership marker
	}
	keyObj := rangeVarObj(pass, rs.Key)
	return keyObj != nil && usesObj(pass, lhs.Index, keyObj)
}

// isCompareFold matches the manual running-min/max idiom:
// `if e < x { x = e }` (any of < > <= >=, either operand order), where
// e is the same pure expression in the condition and the assignment.
func isCompareFold(pass *framework.Pass, s *ast.IfStmt, accs map[types.Object]bool) bool {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	assign := s.Body.List[0].(*ast.AssignStmt) // shape-checked in reductionTarget
	if len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	target := pass.TypesInfo.Uses[lhs]
	src, ok := assign.Rhs[0].(*ast.Ident)
	if !ok || !pureOperand(pass, src, accs) {
		return false
	}
	srcObj := pass.TypesInfo.Uses[src]
	if target == nil || srcObj == nil {
		return false
	}
	// The condition must compare exactly the assigned source against
	// the accumulator, in either order.
	condMatches := func(a, b ast.Expr) bool {
		ai, aok := a.(*ast.Ident)
		bi, bok := b.(*ast.Ident)
		return aok && bok &&
			pass.TypesInfo.Uses[ai] == srcObj && pass.TypesInfo.Uses[bi] == target
	}
	return condMatches(cond.X, cond.Y) || condMatches(cond.Y, cond.X)
}

// pureOperand reports whether e can be evaluated in any iteration
// without observing another iteration's effects: no calls (other than
// type conversions and pure builtins), no channel receives, no function
// literals, and no reads of any accumulator.
func pureOperand(pass *framework.Pass, e ast.Expr, accs map[types.Object]bool) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "len", "cap", "min", "max", "real", "imag", "complex":
						return true
					}
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			pure = false
			return false
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && accs[obj] {
				pure = false
				return false
			}
		}
		return true
	})
	return pure
}

// usesObj reports whether e references obj.
func usesObj(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
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
