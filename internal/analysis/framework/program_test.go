package framework_test

import (
	"go/ast"
	"testing"

	"mclegal/internal/analysis/framework"
)

// TestProgramAnalyzerFindings checks the program-wide analyzer shape:
// one Program call per program, each finding reported once by the pass
// of the package holding it, the Directive suppressing ordinary
// findings but never Binding ones.
func TestProgramAnalyzerFindings(t *testing.T) {
	ld := writeFixtureModule(t, map[string]string{
		"pa/a.go": `package pa

func Flagged() {}

//mclegal:demo the fixture proves justified suppression
func Justified() {}

//mclegal:demo a declaration finding stays visible
func Declared() {}
`,
		"pb/b.go": `package pb

func Other() {}
`,
	})
	prog, err := framework.LoadProgram(ld, []string{"pa", "pb"})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	a := &framework.Analyzer{
		Name:      "demo",
		Directive: "demo",
		Program: func(prog *framework.Program) ([]framework.Finding, error) {
			calls++
			var out []framework.Finding
			for _, pkg := range prog.Pkgs {
				for _, d := range pkg.Files[0].Decls {
					fd := d.(*ast.FuncDecl)
					out = append(out, framework.Finding{
						Pos: fd.Pos(), Message: fd.Name.Name, Binding: fd.Name.Name == "Declared",
					})
				}
			}
			return out, nil
		},
	}
	diags, err := prog.Run([]*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("Program ran %d times over a two-package program, want 1", calls)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{"Flagged", "Declared", "Other"}
	if len(got) != len(want) {
		t.Fatalf("diagnostics %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostics %q, want %q", got, want)
		}
	}
}
