// Package snapshotsafe proves the pipeline's rollback story complete:
// for every gated stage, the stage's transitive resident-state write
// set (computed by the framework's write-effect engine under the
// internal/analysis/writeloc vocabulary) must be covered by what the
// gate's snapshot/rollback restores, or by state declared per-run
// scratch.
//
// The gate declares its restored locations in its doc comment:
//
//	//mclegal:restores design.xy,stagectx what the rollback puts back
//
// and per-run scratch is declared on the tracked type or field itself:
//
//	//mclegal:ephemeral rebuilt from the design on every run
//
// The analyzer locates every function carrying a //mclegal:restores
// directive, resolves the Stage interface of that function's package,
// finds every in-program implementation, and checks
//
//	writes(impl.Run) ⊆ restores(gate) ∪ ephemeral
//
// reporting any stage mutation a rollback would silently keep. It also
// validates the declarations themselves: restored locations must be
// real vocabulary names, and both directives must carry a
// justification.
//
// Provability (no dynamic/external calls with unknowable effects in
// the stage trees) is the writeset analyzer's job; the two share one
// write-effect computation and snapshotsafe does not re-report unknown
// call sites. This analyzer is the static foundation the ROADMAP
// item 1 ECO dirty-region refactor extends: new snapshotable
// PipelineContext state must join the //mclegal:restores contract to
// pass it (docs/DESIGN.md).
package snapshotsafe

import (
	"fmt"
	"go/types"
	"sort"
	"strings"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
	"mclegal/internal/analysis/writeloc"
)

// Analyzer proves write-set ⊆ restored-set for every gated stage.
var Analyzer = &framework.Analyzer{
	Name:      "snapshotsafe",
	Doc:       "prove every gated stage's resident-state write set is covered by the gate's declared snapshot/rollback (//mclegal:restores) or by //mclegal:ephemeral scratch",
	Scope:     scope.GateBoundary,
	Directive: "snapshotsafe",
	Example:   "//mclegal:snapshotsafe this stage runs ungated by construction; its caller owns the snapshot",
	Program:   findings,
}

// StageProof is the static rollback proof of one gated stage, exported
// for the bidirectional pin against the dynamic rollback byte-identity
// test (TestStageWriteSetsMatchRollbackProof).
type StageProof struct {
	// Type is the implementation's qualified name, e.g. "stage.MGLStage".
	Type string
	// Gate is the qualified name of the //mclegal:restores function.
	Gate string
	// Writes is the stage Run tree's transitive location set; Restored
	// and Ephemeral are the covering sets; Uncovered is what remains.
	Writes    []string
	Restored  []string
	Ephemeral []string
	Uncovered []string
}

type ssState struct {
	findings []framework.Finding
	proofs   []StageProof
}

func state(prog *framework.Program) (*ssState, error) {
	v, err := prog.CacheLoad("snapshotsafe", func() (any, error) { return computeState(prog) })
	if err != nil {
		return nil, err
	}
	return v.(*ssState), nil
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	return st.findings, nil
}

// StageProofs exposes the per-stage static proofs of the loaded
// program; the pin test compares them against the dynamic rollback
// test's stage table in both directions.
func StageProofs(prog *framework.Program) ([]StageProof, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	return st.proofs, nil
}

type gate struct {
	node     *framework.Node
	restores []string
}

func computeState(prog *framework.Program) (*ssState, error) {
	effects, vocab, err := writeloc.Effects(prog)
	if err != nil {
		return nil, err
	}
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	st := &ssState{}
	fset := prog.Fset()

	known := make(map[string]bool)
	for _, l := range vocab.LocNames() {
		known[l] = true
	}

	// Ephemeral declarations excuse their locations everywhere; a bare
	// directive still owes its why.
	ephLocs := make(map[string]bool)
	for _, e := range vocab.Ephemerals() {
		if strings.TrimSpace(e.Reason) == "" {
			st.findings = append(st.findings, framework.Finding{
				Pos: e.Pos, Binding: true,
				Message: fmt.Sprintf("//mclegal:ephemeral on %s (%s) is missing a justification", e.What, fset.Position(e.Pos).Filename),
			})
		}
		for _, l := range e.Locs {
			ephLocs[l] = true
		}
	}

	// Gates are the //mclegal:restores-annotated functions; each defines
	// the rollback contract for the Stage interface of its own package.
	for _, n := range cg.Nodes() {
		if n.External() || n.Pkg == nil || n.Decl == nil || n.Decl.Doc == nil {
			continue
		}
		reason, ok := framework.DocDirective(n.Decl.Doc, "restores")
		if !ok {
			continue
		}
		g := gate{node: n}
		fields := strings.Fields(reason)
		if len(fields) == 0 {
			st.findings = append(st.findings, framework.Finding{
				Pos: n.Decl.Pos(), Binding: true,
				Message: fmt.Sprintf("//mclegal:restores on %s names no locations; declare `//mclegal:restores <locs> <why>`", n.Func.Name()),
			})
			continue
		}
		if len(fields) == 1 {
			st.findings = append(st.findings, framework.Finding{
				Pos: n.Decl.Pos(), Binding: true,
				Message: fmt.Sprintf("//mclegal:restores on %s is missing a justification", n.Func.Name()),
			})
		}
		bad := false
		for _, l := range strings.Split(fields[0], ",") {
			l = strings.TrimSpace(l)
			if l == "" {
				continue
			}
			if !known[l] {
				st.findings = append(st.findings, framework.Finding{
					Pos: n.Decl.Pos(), Binding: true,
					Message: fmt.Sprintf("//mclegal:restores on %s names unknown location %q (known: %s)", n.Func.Name(), l, strings.Join(vocab.LocNames(), ", ")),
				})
				bad = true
				continue
			}
			g.restores = append(g.restores, l)
		}
		if bad {
			continue
		}
		sort.Strings(g.restores)
		st.checkGate(prog, cg, effects, vocab, g, ephLocs)
	}
	sort.Slice(st.proofs, func(i, j int) bool { return st.proofs[i].Type < st.proofs[j].Type })
	return st, nil
}

// checkGate proves coverage for every in-program implementation of the
// gate package's Stage interface.
func (st *ssState) checkGate(prog *framework.Program, cg *framework.CallGraph, effects map[*framework.Node]*framework.WriteEffects, vocab *writeloc.Vocab, g gate, ephLocs map[string]bool) {
	gatePkg := g.node.Pkg
	iface := stageInterface(gatePkg)
	if iface == nil {
		st.findings = append(st.findings, framework.Finding{
			Pos: g.node.Decl.Pos(), Binding: true,
			Message: fmt.Sprintf("//mclegal:restores on %s has no Stage interface in its package to prove coverage against", g.node.Func.Name()),
		})
		return
	}
	gateName := gatePkg.Types.Name() + "." + g.node.Func.Name()

	var ephList []string
	for l := range ephLocs {
		ephList = append(ephList, l)
	}
	sort.Strings(ephList)

	for _, impl := range stageImpls(prog, iface) {
		runFn := runMethod(impl)
		if runFn == nil {
			continue
		}
		node := cg.Node(runFn)
		if node == nil || node.Decl == nil {
			continue
		}
		we := effects[node]
		if we == nil {
			continue
		}
		locs := vocab.EffectLocs(we.Effects)
		proof := StageProof{
			Type:      impl.Obj().Pkg().Name() + "." + impl.Obj().Name(),
			Gate:      gateName,
			Writes:    locs,
			Restored:  g.restores,
			Ephemeral: ephList,
		}
		for _, l := range locs {
			if containsString(g.restores, l) || ephLocs[l] {
				continue
			}
			proof.Uncovered = append(proof.Uncovered, l)
			st.findings = append(st.findings, framework.Finding{
				Pos: node.Decl.Pos(),
				Message: fmt.Sprintf("(%s).Run's call tree writes %s (e.g. %s), which %s's rollback does not restore and no //mclegal:ephemeral covers; add the location to the snapshot/rollback path or declare its type ephemeral",
					proof.Type, l, vocab.Witness(we.Effects, l), gateName),
			})
		}
		st.proofs = append(st.proofs, proof)
	}
}

// stageInterface resolves the Stage interface declared in pkg.
func stageInterface(pkg *framework.Package) *types.Interface {
	tn, _ := pkg.Types.Scope().Lookup("Stage").(*types.TypeName)
	if tn == nil {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// stageImpls collects every in-program named type implementing iface
// (through a pointer or value receiver set), in deterministic order.
func stageImpls(prog *framework.Program, iface *types.Interface) []*types.Named {
	var out []*types.Named
	for _, pkg := range prog.Pkgs {
		sc := pkg.Types.Scope()
		names := sc.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := sc.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				out = append(out, named)
			}
		}
	}
	return out
}

// runMethod finds the implementation's Run method.
func runMethod(named *types.Named) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "Run")
	fn, _ := obj.(*types.Func)
	return fn
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
