// Package writeloc is the resident-state location vocabulary of the
// write-effect analyzers (writeset, snapshotsafe, aliasleak): which
// struct fields and types of this module hold state that outlives a
// single pipeline stage, and what abstract location name each maps to.
// The framework's write-effect engine stays domain-free; everything
// mclegal-specific about "what counts as resident state" lives here.
//
// Locations (see docs/STATIC_ANALYSIS.md):
//
//	design.xy  — cell coordinates: model.Cell.X/Y
//	design.meta — cell and design metadata: every other model.Design /
//	              model.Cell field (replacing a whole Cell or the
//	              Cells slice touches design.xy too)
//	hotcells   — the model.HotCells SoA coordinate mirror
//	grid       — the seg.Grid/seg.Segment row segmentation
//	occupancy  — the MGL legalizer's per-run occupancy index
//	stagectx   — stage.PipelineContext fields (stats, reports)
//
// Package paths are matched by suffix (framework.PathMatchesAny), so
// the same vocabulary resolves over the real module and over
// analysistest fixtures whose import paths merely end in
// internal/model, internal/stage, ...
package writeloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mclegal/internal/analysis/framework"
)

// locSpec maps one named type's fields onto location names. The ""
// field key is the default for fields not listed explicitly.
type locSpec struct {
	pkg    string // package path suffix
	typ    string
	fields map[string][]string
}

var specs = []locSpec{
	{"internal/model", "Cell", map[string][]string{
		"X": {"design.xy"}, "Y": {"design.xy"},
		"": {"design.meta"},
	}},
	{"internal/model", "Design", map[string][]string{
		// Replacing the Cells slice header adds/removes cells:
		// structurally that is both metadata and coordinates.
		"Cells": {"design.meta", "design.xy"},
		"":      {"design.meta"},
	}},
	{"internal/model", "HotCells", map[string][]string{"": {"hotcells"}}},
	{"internal/seg", "Grid", map[string][]string{"": {"grid"}}},
	{"internal/seg", "Segment", map[string][]string{"": {"grid"}}},
	{"internal/mgl", "occupancy", map[string][]string{"": {"occupancy"}}},
	{"internal/stage", "PipelineContext", map[string][]string{"": {"stagectx"}}},
}

// knownExternals classifies the stdlib callees the deterministic core
// uses. Sorters mutate (element-level) exactly their first argument;
// the safe set is read-only with respect to anything passed in and
// retains nothing.
var externalSorters = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"sort.Ints":             true,
	"sort.Strings":          true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
	"slices.Reverse":        true,
}

var externalSafePkgs = map[string]bool{
	"sort": true, "slices": true, "cmp": true, "math": true, "math/bits": true,
	"strconv": true, "strings": true, "errors": true, "fmt": true,
	"unicode/utf8": true, "bytes": true, "bufio": true, "io": true,
	"encoding/json": true, "encoding/binary": true, "os": true,
	"sync": true, "sync/atomic": true, "context": true, "time": true,
	"log": true, "net/http": true, "net": true, "flag": true,
	"os/signal": true, "runtime": true, "path/filepath": true, "hash/fnv": true,
}

// Vocab is the resolved vocabulary for one loaded program.
type Vocab struct {
	prog *framework.Program

	fieldLocs map[*types.Var][]string      // tracked field/var -> location names
	typeSpec  map[*types.TypeName]*locSpec // tracked named type -> its spec
	typeDecl  map[*types.TypeName]*ast.GenDecl
	fieldDoc  map[*types.Var]*ast.Field

	reachMemo   map[types.Type]int8
	containMemo map[types.Type]int8
}

const (
	memoBusy = iota + 1
	memoTrue
	memoFalse
)

// For returns the program's vocabulary, building it on first use (it
// is shared by all three write-effect analyzers via the program
// cache).
func For(prog *framework.Program) (*Vocab, error) {
	v, err := prog.CacheLoad("writeloc.vocab", func() (any, error) {
		return build(prog), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Vocab), nil
}

func build(prog *framework.Program) *Vocab {
	v := &Vocab{
		prog:        prog,
		fieldLocs:   make(map[*types.Var][]string),
		typeSpec:    make(map[*types.TypeName]*locSpec),
		typeDecl:    make(map[*types.TypeName]*ast.GenDecl),
		fieldDoc:    make(map[*types.Var]*ast.Field),
		reachMemo:   make(map[types.Type]int8),
		containMemo: make(map[types.Type]int8),
	}
	for _, pkg := range prog.Pkgs {
		for si := range specs {
			spec := &specs[si]
			if !framework.PathMatchesAny(pkg.Path, []string{spec.pkg}) {
				continue
			}
			tn, _ := pkg.Types.Scope().Lookup(spec.typ).(*types.TypeName)
			if tn == nil {
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			if st == nil {
				continue
			}
			v.typeSpec[tn] = spec
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				locs, ok := spec.fields[f.Name()]
				if !ok {
					locs = spec.fields[""]
				}
				if len(locs) > 0 {
					v.fieldLocs[f] = locs
				}
			}
			v.indexDecls(pkg, tn, st)
		}
	}
	return v
}

// indexDecls records the AST declaration of a tracked type and its
// fields, so the ephemeral registry can read their doc directives.
func (v *Vocab) indexDecls(pkg *framework.Package, tn *types.TypeName, st *types.Struct) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok || pkg.Info.Defs[ts.Name] != tn {
					continue
				}
				v.typeDecl[tn] = gd
				stl, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range stl.Fields.List {
					for _, name := range fld.Names {
						if fv, ok := pkg.Info.Defs[name].(*types.Var); ok {
							v.fieldDoc[fv] = fld
						}
					}
				}
			}
		}
	}
}

// Tracked reports whether obj is a resident-state location.
func (v *Vocab) Tracked(obj *types.Var) bool {
	_, ok := v.fieldLocs[obj]
	return ok
}

// LocNames returns every location name the vocabulary defines, sorted.
func (v *Vocab) LocNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, spec := range specs {
		for _, locs := range spec.fields {
			for _, l := range locs {
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// EffectLocs maps a transitive effect list onto its sorted,
// deduplicated location names.
func (v *Vocab) EffectLocs(effs []framework.WriteEffect) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range effs {
		for _, l := range v.fieldLocs[e.Obj] {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Witness names the first effect of effs that writes loc, with its
// position (e.g. "model.X at model.go:12:3"), as a finding's example.
func (v *Vocab) Witness(effs []framework.WriteEffect, loc string) string {
	for _, e := range effs {
		for _, l := range v.fieldLocs[e.Obj] {
			if l != loc {
				continue
			}
			name := e.Obj.Name()
			if e.Obj.Pkg() != nil {
				name = e.Obj.Pkg().Name() + "." + name
			}
			return fmt.Sprintf("%s at %s", name, v.prog.Fset().Position(e.Pos))
		}
	}
	return "?"
}

// ValueWrites returns the tracked fields written when a whole value of
// t is stored (a Cell element assignment writes both coordinates and
// metadata). Pointer types answer nil: storing a *Design into a map
// writes the map slot, not the design behind the pointer.
func (v *Vocab) ValueWrites(t types.Type) []*types.Var {
	if t == nil {
		return nil
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return nil
	}
	named := namedOf(t)
	if named == nil {
		return nil
	}
	tn := named.Obj()
	if _, ok := v.typeSpec[tn]; !ok {
		return nil
	}
	st, _ := named.Underlying().(*types.Struct)
	if st == nil {
		return nil
	}
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); v.Tracked(f) {
			out = append(out, f)
		}
	}
	return out
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// Reaches reports whether a VALUE of t can be used to mutate tracked
// storage: only through reference types (a copied Cell cannot, a
// []Cell or *Design can). Interface and function types answer false —
// the vocabulary's types are module-internal, so an external callee
// cannot name them behind an interface; function values are screened
// separately by the engine.
func (v *Vocab) Reaches(t types.Type) bool {
	if t == nil {
		return false
	}
	switch m := v.reachMemo[t]; m {
	case memoBusy, memoFalse:
		return false
	case memoTrue:
		return true
	}
	v.reachMemo[t] = memoBusy
	res := false
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		res = v.contains(u.Elem())
	case *types.Slice:
		res = v.contains(u.Elem())
	case *types.Map:
		res = v.contains(u.Key()) || v.contains(u.Elem())
	case *types.Chan:
		res = v.contains(u.Elem())
	case *types.Array:
		res = v.Reaches(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if v.Reaches(u.Field(i).Type()) {
				res = true
				break
			}
		}
	}
	if res {
		v.reachMemo[t] = memoTrue
	} else {
		v.reachMemo[t] = memoFalse
	}
	return res
}

// contains reports whether storage of type t is (or transitively
// holds) a tracked type.
func (v *Vocab) contains(t types.Type) bool {
	if t == nil {
		return false
	}
	switch m := v.containMemo[t]; m {
	case memoBusy, memoFalse:
		return false
	case memoTrue:
		return true
	}
	v.containMemo[t] = memoBusy
	res := false
	if n := namedOf(t); n != nil {
		if _, ok := v.typeSpec[n.Obj()]; ok {
			res = true
		}
	}
	if !res {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			res = v.contains(u.Elem())
		case *types.Slice:
			res = v.contains(u.Elem())
		case *types.Array:
			res = v.contains(u.Elem())
		case *types.Map:
			res = v.contains(u.Key()) || v.contains(u.Elem())
		case *types.Chan:
			res = v.contains(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if v.contains(u.Field(i).Type()) {
					res = true
					break
				}
			}
		}
	}
	if res {
		v.containMemo[t] = memoTrue
	} else {
		v.containMemo[t] = memoFalse
	}
	return res
}

// External classifies stdlib callees: sorters mutate their first
// argument element-wise, the safe packages mutate and retain nothing
// that is passed to them. Everything else is screened conservatively.
func (v *Vocab) External(fn *types.Func) (mutatesArgs []int, known bool) {
	if fn.Pkg() == nil {
		return nil, true // universe scope (error.Error)
	}
	if externalSorters[fn.FullName()] {
		return []int{0}, true
	}
	if externalSafePkgs[fn.Pkg().Path()] {
		return nil, true
	}
	return nil, false
}

// Framework adapts the vocabulary to the engine's injection points.
func (v *Vocab) Framework() *framework.WriteVocabulary {
	return &framework.WriteVocabulary{
		Tracked:     v.Tracked,
		Reaches:     v.Reaches,
		ValueWrites: v.ValueWrites,
		External:    v.External,
	}
}

// Effects computes (once per program) the transitive write summaries
// of every function under this vocabulary; the three write-effect
// analyzers share the result through the program cache.
func Effects(prog *framework.Program) (map[*framework.Node]*framework.WriteEffects, *Vocab, error) {
	v, err := For(prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := prog.CacheLoad("writeloc.effects", func() (any, error) {
		cg, err := prog.CallGraph()
		if err != nil {
			return nil, err
		}
		return cg.WriteEffects(v.Framework()), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res.(map[*framework.Node]*framework.WriteEffects), v, nil
}

// An Ephemeral is one //mclegal:ephemeral declaration on a tracked
// type or field: per-run scratch whose mutations provably do not
// outlive the stage that makes them, so snapshotsafe excuses its
// locations from the rollback proof.
type Ephemeral struct {
	Locs   []string
	Pos    token.Pos
	Reason string
	What   string // "type mgl.occupancy" / "field <pkg>.<field>"
}

// Ephemerals scans the tracked types' declarations (and their fields)
// for //mclegal:ephemeral doc directives. Bare directives (no
// justification) are returned with Reason == "" for the analyzer to
// report.
func (v *Vocab) Ephemerals() []Ephemeral {
	var out []Ephemeral
	for tn, spec := range v.typeSpec {
		if gd := v.typeDecl[tn]; gd != nil {
			if reason, ok := framework.DocDirective(gd.Doc, "ephemeral"); ok {
				out = append(out, Ephemeral{
					Locs:   locsOfSpec(spec),
					Pos:    gd.Pos(),
					Reason: reason,
					What:   "type " + tn.Pkg().Name() + "." + tn.Name(),
				})
			}
		}
	}
	for fv, fld := range v.fieldDoc {
		if reason, ok := framework.DocDirective(fld.Doc, "ephemeral"); ok {
			out = append(out, Ephemeral{
				Locs:   v.fieldLocs[fv],
				Pos:    fld.Pos(),
				Reason: reason,
				What:   "field " + fv.Pkg().Name() + "." + fv.Name(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func locsOfSpec(spec *locSpec) []string {
	seen := make(map[string]bool)
	var out []string
	for _, locs := range spec.fields {
		for _, l := range locs {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Strings(out)
	return out
}
