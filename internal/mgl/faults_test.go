package mgl

import (
	"errors"
	"strings"
	"testing"

	"mclegal/internal/faults"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// faultLegalizer builds a fresh n-cell legalizer per call so armed
// injectors never leak between runs.
func faultLegalizer(t *testing.T, n int) func(opt Options) *Legalizer {
	t.Helper()
	d := newDesign(80, 8)
	for i := 0; i < n; i++ {
		addCell(d, 0, (7*i)%70, i%6, 0)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return func(opt Options) *Legalizer {
		dd := d.Clone()
		grid, err := seg.Build(dd)
		if err != nil {
			t.Fatal(err)
		}
		return New(dd, grid, opt)
	}
}

// An injected panic inside an evaluation worker is recovered into a
// typed *WorkerPanicError — the process survives, the error names the
// cell and carries a stack.
// BatchCap 1 at Workers 4 splits every batch into row tasks.
func TestWorkerPanicIsolated(t *testing.T) {
	for _, opt := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, BatchCap: 1}} {
		mk := faultLegalizer(t, 30)
		opt.Faults = faults.New().Arm(faults.MGLWorkerPanic)
		err := mk(opt).Run()
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("workers=%d batchcap=%d: err = %T %v, want *WorkerPanicError", opt.Workers, opt.BatchCap, err, err)
		}
		if len(wp.Stack) == 0 || wp.Value == nil {
			t.Errorf("workers=%d batchcap=%d: incomplete panic error %+v", opt.Workers, opt.BatchCap, wp)
		}
		if !strings.Contains(wp.Error(), "worker panic") {
			t.Errorf("workers=%d batchcap=%d: error text %q", opt.Workers, opt.BatchCap, wp.Error())
		}
	}
}

// workerPanicCell runs the fault design with the injector armed to let
// skip evaluations pass and then fire count times, and returns the cell
// the reported panic names.
func workerPanicCell(t *testing.T, opt Options, skip, count int) model.CellID {
	t.Helper()
	opt.Faults = faults.New().ArmN(faults.MGLWorkerPanic, skip, count)
	err := faultLegalizer(t, 30)(opt).Run()
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("workers=%d batchcap=%d skip=%d: err = %v", opt.Workers, opt.BatchCap, skip, err)
	}
	return wp.Cell
}

// With every evaluation panicking, the reported cell is the lowest
// batch index regardless of worker count: first panic wins
// deterministically.
func TestWorkerPanicDeterministic(t *testing.T) {
	a := workerPanicCell(t, Options{Workers: 1}, 0, -1)
	for _, opt := range []Options{{Workers: 8}, {Workers: 4, BatchCap: 1}} {
		if b := workerPanicCell(t, opt, 0, -1); a != b {
			t.Errorf("panic attribution depends on workers: cell %d vs %d at %+v", a, b, opt)
		}
	}
}

// Firing is decided serially, one hit per window per batch in slot
// order, so the k-th hit names the same cell at every worker count,
// split batches included.
func TestWorkerPanicSameCellAcrossWorkers(t *testing.T) {
	for _, skip := range []int{0, 3, 10, 25} {
		for _, batchCap := range []int{0, 1} {
			a := workerPanicCell(t, Options{Workers: 1, BatchCap: batchCap}, skip, 1)
			if b := workerPanicCell(t, Options{Workers: 8, BatchCap: batchCap}, skip, 1); a != b {
				t.Errorf("skip %d batchcap %d: the fault hits cell %d at Workers 1, cell %d at Workers 8", skip, batchCap, a, b)
			}
		}
	}
}

// The injected insert-outside fault surfaces as a typed *InsertError
// with the offending cell's placement recorded.
func TestInsertOutsideTypedError(t *testing.T) {
	mk := faultLegalizer(t, 10)
	l := mk(Options{Workers: 1, Faults: faults.New().Arm(faults.MGLInsertOutside)})
	err := l.Run()
	var ie *InsertError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T %v, want *InsertError", err, err)
	}
	if ie.Name == "" || !strings.Contains(ie.Error(), "outside any segment") {
		t.Errorf("insert error incomplete: %v", ie)
	}
}

func TestTypedErrorStrings(t *testing.T) {
	ie := &InfeasibleError{Cell: 3, Name: "u3", Fence: 1}
	if !strings.Contains(ie.Error(), "u3") || !strings.Contains(ie.Error(), "fence 1") {
		t.Errorf("infeasible error text %q", ie.Error())
	}
	we := &WorkerPanicError{Cell: 7, Value: "boom"}
	if !strings.Contains(we.Error(), "boom") {
		t.Errorf("worker panic text %q", we.Error())
	}
}
