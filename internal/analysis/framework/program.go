// Program-level analysis: a Program is a set of fully loaded packages
// that share one token.FileSet and one types.Object universe, plus the
// lazily built artifacts analyzers consume across package boundaries —
// the call graph, function summaries, and the program-wide directive
// index (so a //mclegal: suppression works no matter which package's
// pass reports the finding).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Program is one coherent set of loaded packages under analysis.
type Program struct {
	// Pkgs are the packages in load order.
	Pkgs []*Package

	byPath     map[string]*Package
	byTypes    map[*types.Package]*Package
	directives map[string]map[int]directive

	cg    *CallGraph
	cgErr error

	cache map[string]any
}

// NewProgram assembles a program from packages loaded by one shared
// Loader (they must share a FileSet; cross-package analysis is
// meaningless otherwise).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:       pkgs,
		byPath:     make(map[string]*Package, len(pkgs)),
		byTypes:    make(map[*types.Package]*Package, len(pkgs)),
		directives: make(map[string]map[int]directive),
		cache:      make(map[string]any),
	}
	for _, pkg := range pkgs {
		p.byPath[pkg.Path] = pkg
		p.byTypes[pkg.Types] = pkg
		mergeDirectives(p.directives, pkg.Fset, pkg.Files)
	}
	return p
}

// LoadProgram loads every path as a full target of l and assembles the
// program.
func LoadProgram(l *Loader, paths []string) (*Program, error) {
	pkgs, err := l.LoadTargets(paths)
	if err != nil {
		return nil, err
	}
	return NewProgram(pkgs), nil
}

// Package returns the loaded package with the given import path, or
// nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Fset returns the FileSet shared by the program's packages (nil for
// an empty program).
func (p *Program) Fset() *token.FileSet {
	if len(p.Pkgs) == 0 {
		return nil
	}
	return p.Pkgs[0].Fset
}

// PackageFor maps a types.Package back to its loaded Package; nil for
// packages outside the program (header-only dependencies).
func (p *Program) PackageFor(t *types.Package) *Package { return p.byTypes[t] }

// CallGraph returns the program's call graph, building it on first
// use. The graph is shared by every analyzer in the run.
func (p *Program) CallGraph() (*CallGraph, error) {
	if p.cg == nil && p.cgErr == nil {
		p.cg, p.cgErr = buildCallGraph(p)
	}
	return p.cg, p.cgErr
}

// CacheLoad memoizes an arbitrary program-scoped artifact under key,
// so whole-program state (the write-effect summaries, noalloc's hot
// closure, each program-wide analyzer's findings) is computed once per
// program however many analyzers and passes read it.
func (p *Program) CacheLoad(key string, build func() (any, error)) (any, error) {
	if v, ok := p.cache[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	p.cache[key] = v
	return v, nil
}

// DirectiveAt reports whether a //mclegal:<name> directive covers the
// source line of pos or the line above it — the same placement rule
// Pass.Suppressed applies — and returns its justification text. It
// lets program-scoped inventories (e.g. goleak's spawn roots) consult
// directives outside the reporting path.
func (p *Program) DirectiveAt(name string, pos token.Pos) (reason string, ok bool) {
	fset := p.Fset()
	if fset == nil || !pos.IsValid() {
		return "", false
	}
	position := fset.Position(pos)
	lines := p.directives[position.Filename]
	if lines == nil {
		return "", false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		if d, found := lines[line]; found && d.name == name {
			return d.reason, true
		}
	}
	return "", false
}

// findings runs a program-wide analyzer once and groups its findings
// by the package whose files hold them.
func (p *Program) findings(a *Analyzer) (map[*types.Package][]Finding, error) {
	v, err := p.CacheLoad("findings:"+a.Name, func() (any, error) {
		all, err := a.Program(p)
		if err != nil {
			return nil, err
		}
		byPkg := make(map[*types.Package][]Finding)
		for _, f := range all {
			if pkg := p.packageAt(f.Pos); pkg != nil {
				byPkg[pkg.Types] = append(byPkg[pkg.Types], f)
			}
		}
		return byPkg, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[*types.Package][]Finding), nil
}

// packageAt returns the program package whose files contain pos, or
// nil.
func (p *Program) packageAt(pos token.Pos) *Package {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos <= f.FileEnd {
				return pkg
			}
		}
	}
	return nil
}

// Run applies every analyzer to every package of the program and
// returns the combined diagnostics ordered by position (file, line,
// column, analyzer) — the stable order the -json output mode relies
// on.
func (p *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	for _, pkg := range p.Pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				Prog:       p,
				directives: p.directives,
				diags:      &diags,
			}
			run := a.Run
			if a.Program != nil {
				run = (*Pass).reportFindings
			}
			if err := run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	if fset != nil {
		sortDiagnostics(fset, diags)
	}
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// mergeDirectives indexes every //mclegal: comment of files into out.
func mergeDirectives(out map[string]map[int]directive, fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]directive)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = directive{name: m[1], reason: m[2]}
			}
		}
	}
}
