package framework_test

import (
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"

	"mclegal/internal/analysis/framework"
)

// testWriteVocab tracks the X coordinate field and the Cells slice of
// the fixture's Design/Cell types, the minimal vocabulary the engine
// tests need.
func testWriteVocab() *framework.WriteVocabulary {
	return &framework.WriteVocabulary{
		Tracked: func(v *types.Var) bool {
			return v.Name() == "X" || v.Name() == "Cells"
		},
		Reaches: func(t types.Type) bool {
			return strings.Contains(t.String(), "Design") || strings.Contains(t.String(), "Cell")
		},
		External: func(fn *types.Func) ([]int, bool) { return nil, false },
	}
}

const writeEffectFixture = `package w

import "ext"

type Cell struct{ X, Y int }

type Design struct{ Cells []Cell }

func (d *Design) SetX(i, v int) { d.Cells[i].X = v }

// Shift writes through a reslice of a parameter's slice: the reslice
// denotes the same backing array, so the effect must survive rooted at
// the parameter.
func Shift(d *Design) {
	tail := d.Cells[1:]
	tail[0].X = 7
}

// Fresh builds and initializes its own Design: every write lands in
// fresh storage and must vanish from the summary.
func Fresh() *Design {
	d := &Design{Cells: make([]Cell, 4)}
	d.Cells[0].X = 1
	return d
}

// Wrap builds a fresh Design around a caller-owned backing array: the
// element write escapes the fresh object and must survive as shared.
func Wrap(cells []Cell) {
	d := &Design{Cells: cells}
	d.Cells[0].X = 9
}

// Apply calls a method value bound once to a local: the call resolves
// statically and SetX's receiver effects re-root through d.
func Apply(d *Design) {
	f := d.SetX
	f(0, 3)
}

// Run calls an opaque function value: unprovable, fails closed.
func Run(f func()) { f() }

// Restore calls a parameterless literal bound once to a local — the
// gate's rollback idiom. The body is analyzed inline through its
// captures, so the call resolves and the write stays rooted at the
// parameter instead of failing closed.
func Restore(d *Design) {
	rollback := func() { d.Cells[0].X = 0 }
	rollback()
}

// RestoreArg writes through the literal's OWN pointer parameter: the
// inline walk cannot attribute that storage to the caller's bindings,
// so the write must fail closed as shared, not vanish as fresh.
func RestoreArg(d *Design) {
	set := func(t *Design) { t.Cells[0].X = 5 }
	set(d)
}

// Outer inherits Run's unknown and adds its own tracked write.
func Outer(d *Design, f func()) {
	Run(f)
	d.Cells[0].X = 1
}

// Leak hands the design to an external callee whose behavior is
// unknown: fails closed.
func Leak(d *Design) { ext.Touch(d) }

// Build only calls the fresh constructor: nothing to report.
func Build() *Design { return Fresh() }
`

const writeEffectExtFixture = `package ext

func Touch(v any) {}
`

func writeEffectsByName(t *testing.T) map[string]*framework.WriteEffects {
	t.Helper()
	ld := writeFixtureModule(t, map[string]string{
		"w/w.go":     writeEffectFixture,
		"ext/ext.go": writeEffectExtFixture,
	})
	_, cg := loadGraph(t, ld, "w")
	res := cg.WriteEffects(testWriteVocab())
	out := make(map[string]*framework.WriteEffects)
	for _, n := range cg.Nodes() {
		if we := res[n]; we != nil {
			out[n.Func.FullName()] = we
		}
	}
	return out
}

func TestWriteEffectsReslicesAndRoots(t *testing.T) {
	res := writeEffectsByName(t)

	setx := res["(*w.Design).SetX"]
	if len(setx.Effects) != 1 || len(setx.Unknown) != 0 {
		t.Fatalf("SetX: got %+v / unknown %+v", setx.Effects, setx.Unknown)
	}
	if e := setx.Effects[0]; e.Obj.Name() != "X" || e.Root != framework.WriteRecv || !e.Crossed {
		t.Errorf("SetX effect = {%s %v crossed=%v}, want {X receiver crossed}", e.Obj.Name(), e.Root, e.Crossed)
	}

	shift := res["w.Shift"]
	if len(shift.Effects) != 1 {
		t.Fatalf("Shift: got %+v", shift.Effects)
	}
	if e := shift.Effects[0]; e.Obj.Name() != "X" || e.Root != framework.WriteParam || e.Param != 0 {
		t.Errorf("Shift effect = {%s %v param=%d}, want {X parameter 0}: reslice lost the backing", e.Obj.Name(), e.Root, e.Param)
	}

	if fresh := res["w.Fresh"]; len(fresh.Effects) != 0 || len(fresh.Unknown) != 0 {
		t.Errorf("Fresh: constructor writes must drop, got %+v / %+v", fresh.Effects, fresh.Unknown)
	}
	if build := res["w.Build"]; len(build.Effects) != 0 || len(build.Unknown) != 0 {
		t.Errorf("Build: calling a fresh constructor must stay clean, got %+v / %+v", build.Effects, build.Unknown)
	}

	wrap := res["w.Wrap"]
	if len(wrap.Effects) != 1 {
		t.Fatalf("Wrap: got %+v", wrap.Effects)
	}
	if e := wrap.Effects[0]; e.Obj.Name() != "X" || e.Root != framework.WriteShared {
		t.Errorf("Wrap effect = {%s %v}, want {X shared}: foreign backing behind a fresh object must not drop", e.Obj.Name(), e.Root)
	}
}

func TestWriteEffectsMethodValuesAndUnknowns(t *testing.T) {
	res := writeEffectsByName(t)

	apply := res["w.Apply"]
	if len(apply.Unknown) != 0 {
		t.Fatalf("Apply: a single-bound method value must resolve statically, got unknowns %+v", apply.Unknown)
	}
	if len(apply.Effects) != 1 {
		t.Fatalf("Apply: got %+v", apply.Effects)
	}
	if e := apply.Effects[0]; e.Obj.Name() != "X" || e.Root != framework.WriteParam || e.Param != 0 {
		t.Errorf("Apply effect = {%s %v param=%d}, want {X parameter 0} via the bound receiver", e.Obj.Name(), e.Root, e.Param)
	}
	if apply.Effects[0].Owner.Name() != "SetX" {
		t.Errorf("Apply witness owner = %s, want SetX", apply.Effects[0].Owner.Name())
	}

	run := res["w.Run"]
	if len(run.Unknown) != 1 {
		t.Fatalf("Run: dynamic call must fail closed, got %+v", run.Unknown)
	}

	restore := res["w.Restore"]
	if len(restore.Unknown) != 0 {
		t.Fatalf("Restore: a single-bound parameterless literal must resolve, got unknowns %+v", restore.Unknown)
	}
	if len(restore.Effects) != 1 || restore.Effects[0].Obj.Name() != "X" ||
		restore.Effects[0].Root != framework.WriteParam || restore.Effects[0].Param != 0 {
		t.Errorf("Restore: capture write must survive rooted at the parameter, got %+v", restore.Effects)
	}

	ra := res["w.RestoreArg"]
	if len(ra.Effects) != 1 || ra.Effects[0].Obj.Name() != "X" || ra.Effects[0].Root != framework.WriteShared {
		t.Errorf("RestoreArg: a write through the literal's own parameter must fail closed as shared, got %+v / unknowns %+v", ra.Effects, ra.Unknown)
	}

	outer := res["w.Outer"]
	if len(outer.Unknown) != 1 {
		t.Errorf("Outer: must inherit Run's unknown site, got %+v", outer.Unknown)
	} else if outer.Unknown[0].Pos != run.Unknown[0].Pos {
		t.Errorf("Outer: inherited unknown must keep the original site position")
	}
	if len(outer.Effects) != 1 || outer.Effects[0].Root != framework.WriteParam {
		t.Errorf("Outer: own tracked write missing, got %+v", outer.Effects)
	}

	leak := res["w.Leak"]
	if len(leak.Unknown) != 1 || !strings.Contains(leak.Unknown[0].What, "ext.Touch") {
		t.Errorf("Leak: external call receiving tracked state must fail closed, got %+v", leak.Unknown)
	}
}

const witnessFixture = `package v

type Cell struct{ X int }

// Set writes X through eight parameters.
func Set(a, b, c, d, e, f, g, h *Cell) {
	a.X, b.X, c.X, d.X = 1, 2, 3, 4
	e.X, f.X, g.X, h.X = 5, 6, 7, 8
}

// Same passes one cell to all eight: Set's eight effects re-root onto
// one key of Same's summary, each with its own witness.
func Same(p *Cell) { Set(p, p, p, p, p, p, p, p) }

// Twice reaches the same collision through two call sites.
func Twice(p, q *Cell) {
	Same(q)
	Set(p, q, p, q, p, q, p, q)
}
`

// Callee effects that re-root onto one caller key arrive from map
// ranges, so a first-seen witness would differ between computations
// over the same program. The engine keeps the least position: every
// computation names the same witness, and it is Set's first store.
func TestWriteEffectWitnessesAreDeterministic(t *testing.T) {
	ld := writeFixtureModule(t, map[string]string{"v/v.go": witnessFixture})
	_, cg := loadGraph(t, ld, "v")
	witnesses := func() map[string][]token.Pos {
		out := make(map[string][]token.Pos)
		for n, we := range cg.WriteEffects(testWriteVocab()) {
			for _, e := range we.Effects {
				out[n.Func.FullName()] = append(out[n.Func.FullName()], e.Pos)
			}
		}
		return out
	}
	first, second := witnesses(), witnesses()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("witness positions differ between two computations:\n%v\n%v", first, second)
	}
	set := first["v.Set"]
	if len(set) != 8 {
		t.Fatalf("Set: got %d effects, want one per parameter", len(set))
	}
	for _, fn := range []string{"v.Same", "v.Twice"} {
		for _, pos := range first[fn] {
			if pos != set[0] {
				t.Errorf("%s: witness at %v, want Set's first store at %v", fn, pos, set[0])
			}
		}
	}
}
