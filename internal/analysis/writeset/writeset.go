// Package writeset makes the deterministic core's mutation surface a
// declared, machine-checked contract: every exported entrypoint of the
// scope.DeterministicCore packages must have a provable write set over
// the resident-state vocabulary of internal/analysis/writeloc
// (design.xy, design.meta, hotcells, grid, occupancy, stagectx), and
// must declare it in its doc comment:
//
//	//mclegal:writes design.xy,hotcells why the function moves cells
//
// The analyzer computes each entrypoint's transitive write set with the
// framework's write-effect engine (pointer receivers, parameter
// aliasing, reslices and method values are tracked; dynamic and
// unknown external calls fail closed) and reports three ways the
// contract can rot:
//
//   - a mutating entrypoint with no //mclegal:writes declaration;
//   - a stale declaration whose locations no longer match the provable
//     write set (including declarations left behind on functions that
//     no longer mutate anything);
//   - an unprovable write set: a dynamic or unknown external call
//     inside the entrypoint's tree, reported at the call site, where a
//     //mclegal:writeset <why> line directive can justify it once a
//     human has checked the callee cannot touch resident state.
//
// Entrypoints that provably write nothing need no declaration. The
// snapshotsafe analyzer consumes the same summaries; it relies on this
// analyzer's screen for provability and does not re-report unknown
// call sites.
package writeset

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
	"mclegal/internal/analysis/writeloc"
)

// Analyzer enforces declared, provable write sets on the deterministic
// core's exported entrypoints.
var Analyzer = &framework.Analyzer{
	Name:      "writeset",
	Doc:       "require exported deterministic-core entrypoints to declare their provable resident-state write set (//mclegal:writes <locs> <why>)",
	Scope:     scope.DeterministicCore,
	Directive: "writeset",
	Example:   "//mclegal:writeset the debug hook is wired only by tests and receives value copies",
	Program:   findings,
}

// wsState accumulates the findings of one program run.
type wsState struct {
	findings []framework.Finding
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	effects, vocab, err := writeloc.Effects(prog)
	if err != nil {
		return nil, err
	}
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	st := &wsState{}
	// Unknown call sites are shared by every entrypoint whose tree
	// reaches them; report each site once.
	unknownSeen := make(map[token.Pos]bool)
	for _, n := range cg.Nodes() {
		if n.External() || n.Pkg == nil || n.Decl == nil {
			continue
		}
		if !framework.PathMatchesAny(n.Pkg.Path, scope.DeterministicCore) {
			continue
		}
		if !isEntrypoint(n.Func) {
			continue
		}
		we := effects[n]
		if we == nil {
			continue
		}
		for _, u := range we.Unknown {
			if unknownSeen[u.Pos] {
				continue
			}
			unknownSeen[u.Pos] = true
			st.findings = append(st.findings, framework.Finding{
				Pos: u.Pos,
				Message: fmt.Sprintf("write set of exported entrypoint %s is unprovable: %s; make the call static or justify with //mclegal:writeset <why>",
					n.Func.Name(), u.What),
			})
		}
		st.checkDecl(vocab, n, we)
	}
	return st.findings, nil
}

// isEntrypoint reports whether fn is part of the package's exported
// mutation surface: an exported function, or an exported method on an
// exported named type.
func isEntrypoint(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return true
	}
	recv := sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return false
}

// checkDecl compares the //mclegal:writes declaration of one
// entrypoint against its computed write set.
func (st *wsState) checkDecl(vocab *writeloc.Vocab, n *framework.Node, we *framework.WriteEffects) {
	actual := vocab.EffectLocs(we.Effects)
	reason, declared := framework.DocDirective(n.Decl.Doc, "writes")
	pos := n.Decl.Pos()

	if !declared {
		if len(actual) == 0 {
			return // provably write-free, nothing to declare
		}
		st.findings = append(st.findings, framework.Finding{Pos: pos, Message: fmt.Sprintf(
			"exported entrypoint %s mutates %s (e.g. %s) but carries no //mclegal:writes declaration; add `//mclegal:writes %s <why>` to its doc comment",
			n.Func.Name(), strings.Join(actual, ","), vocab.Witness(we.Effects, actual[0]), strings.Join(actual, ","))})
		return
	}

	fields := strings.Fields(reason)
	if len(fields) == 0 {
		st.findings = append(st.findings, framework.Finding{
			Pos: pos, Binding: true,
			Message: fmt.Sprintf("//mclegal:writes on %s names no locations; declare `//mclegal:writes %s <why>`", n.Func.Name(), strings.Join(actual, ",")),
		})
		return
	}
	declaredLocs := splitLocs(fields[0])
	if len(fields) == 1 {
		st.findings = append(st.findings, framework.Finding{
			Pos: pos, Binding: true,
			Message: fmt.Sprintf("//mclegal:writes on %s is missing a justification", n.Func.Name()),
		})
	}
	known := make(map[string]bool)
	for _, l := range vocab.LocNames() {
		known[l] = true
	}
	for _, l := range declaredLocs {
		if !known[l] {
			st.findings = append(st.findings, framework.Finding{
				Pos: pos, Binding: true,
				Message: fmt.Sprintf("//mclegal:writes on %s names unknown location %q (known: %s)", n.Func.Name(), l, strings.Join(vocab.LocNames(), ", ")),
			})
			return
		}
	}
	if !equalStrings(declaredLocs, actual) {
		have := strings.Join(declaredLocs, ",")
		want := strings.Join(actual, ",")
		if want == "" {
			want = "nothing — delete the declaration"
		}
		st.findings = append(st.findings, framework.Finding{
			Pos: pos, Binding: true,
			Message: fmt.Sprintf("stale //mclegal:writes on %s: declares %s but the provable write set is %s", n.Func.Name(), have, want),
		})
	}
}

func splitLocs(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
