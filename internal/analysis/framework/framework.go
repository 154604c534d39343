// Package framework is a self-contained re-implementation of the slice
// of golang.org/x/tools/go/analysis that the mclegal-vet suite needs:
// an Analyzer/Pass/Diagnostic vocabulary, a runner, and justification
// directives. The container this repository builds in has no module
// proxy access, so the upstream module cannot be vendored; the API
// shape mirrors go/analysis closely enough that swapping the import
// path (and the *_test.go harness) back to x/tools is mechanical.
//
// Directives: a diagnostic can be suppressed by a comment of the form
//
//	//mclegal:<name> <justification>
//
// on the flagged line or the line directly above it. The justification
// text is mandatory — a bare directive is itself a diagnostic — so
// every suppression in the tree documents why the invariant does not
// apply. Each analyzer documents its directive name (e.g. maporder
// honours //mclegal:ordered).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// mclegal-vet command line.
	Name string
	// Doc is the help text: first line is a summary, the rest explains
	// the invariant being enforced.
	Doc string
	// Run applies a per-package analyzer to one package, reporting
	// findings through the Pass.
	Run func(*Pass) error
	// Program applies a program-wide analyzer in place of Run: the
	// framework calls it once per program and caches the findings, and
	// each package's pass reports those located in that package unless
	// the analyzer's Directive suppresses them.
	Program func(*Program) ([]Finding, error)

	// Scope lists the package-path suffixes the analyzer's invariant
	// applies to (nil means every package). It is metadata for
	// mclegal-vet's -explain output; the analyzer's Run remains the
	// source of truth for actual scoping.
	Scope []string
	// Directive is the //mclegal:<name> directive the analyzer honours
	// (suppression or declaration), and Example is one justified use of
	// it. mclegal-vet -explain prints both, so the documented
	// suppression story cannot drift from the code.
	Directive string
	Example   string
}

// A Pass is the interface between one analyzer and one package. Prog
// gives a per-package analyzer read access to the whole program (the
// call graph, sibling packages); one whose findings come from a
// whole-program computation sets Analyzer.Program instead.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	directives map[string]map[int]directive // filename -> line -> directive
	diags      *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Finding is one diagnostic of a program-wide analyzer.
type Finding struct {
	Pos     token.Pos
	Message string
	// Binding marks a finding about a declaration itself (a directive
	// missing its justification or naming an unknown location), which
	// no suppression directive may hide.
	Binding bool
}

type directive struct {
	name   string
	reason string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...),
	})
}

// reportFindings reports the program-wide analyzer's findings that
// lie in this pass's package.
func (p *Pass) reportFindings() error {
	byPkg, err := p.Prog.findings(p.Analyzer)
	if err != nil {
		return err
	}
	for _, f := range byPkg[p.Pkg] {
		if f.Binding || !p.Suppressed(p.Analyzer.Directive, f.Pos) {
			p.Reportf(f.Pos, "%s", f.Message)
		}
	}
	return nil
}

var directiveRe = regexp.MustCompile(`^//mclegal:([a-z]+)(?:[ \t]+(.*))?$`)

// Suppressed reports whether a finding at pos is covered by a
// //mclegal:<name> directive on the same line or the line above. A
// directive without a justification suppresses the finding but is
// reported itself, so suppressions can never silently lose their why.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	for _, ln := range [2]int{position.Line, position.Line - 1} {
		d, ok := lines[ln]
		if !ok || d.name != name {
			continue
		}
		if strings.TrimSpace(d.reason) == "" {
			p.Reportf(pos, "//mclegal:%s directive is missing a justification", name)
		}
		return true
	}
	return false
}

// DocDirective scans the doc comment of a declaration for a
// //mclegal:<name> directive and returns its justification text.
// Analyzers use it for function-level markers such as
// //mclegal:hotpath (noalloc roots), where the directive annotates the
// whole declaration rather than suppressing one finding.
func DocDirective(doc *ast.CommentGroup, name string) (reason string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		m := directiveRe.FindStringSubmatch(c.Text)
		if m != nil && m[1] == name {
			return strings.TrimSpace(m[2]), true
		}
	}
	return "", false
}

// RunAnalyzers applies the analyzers to one loaded package and returns
// the combined diagnostics in position order. It is the single-package
// convenience form of Program.Run; cross-package analyzers see a
// program containing just this package.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewProgram([]*Package{pkg}).Run(analyzers)
}

// PathMatchesAny reports whether pkgPath is one of the target packages:
// equal to a target or ending in "/"+target. Matching by suffix lets
// analysistest fixtures (whose import paths are rooted in testdata/src)
// scope themselves exactly like the real module packages.
func PathMatchesAny(pkgPath string, targets []string) bool {
	for _, t := range targets {
		if pkgPath == t || strings.HasSuffix(pkgPath, "/"+t) {
			return true
		}
	}
	return false
}
