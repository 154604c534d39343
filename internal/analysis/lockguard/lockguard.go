// Package lockguard enforces two mutex disciplines over the
// concurrency scope (scope.ConcurrencyScope):
//
// Guard consistency — for each struct field, the analyzer infers its
// guard from majority usage: if some mutex M is held (write-mode for
// writes) at more than half of the field's accesses, including at
// least one write, then M is the field's guard and every access that
// does not hold M is reported. The held set at an access combines the
// function's own Lock/Unlock pairing (framework.ConcSummary) with the
// guards every caller provably holds at every call site
// (CallGraph.InheritedHeld) — so the `locked()` helper idiom, a method
// that touches guarded state and is only ever called under the lock,
// needs no annotation. Accesses through constructor-fresh receivers
// are exempt (the value is unpublished), and a write performed under
// only the read lock of an RWMutex gets its own diagnostic.
//
// No blocking under a lock — a channel send/receive, default-less
// select, or WaitGroup.Wait while holding any mutex stalls every
// contender of that mutex behind an unbounded wait (the
// shard-observer-mutex and serve-semaphore hazard class). Direct
// blocking ops are checked against the held set at the op; static
// calls made under a lock are checked against the callee's transitive
// may-block fact (CallGraph.MayBlock), and the diagnostic names the
// concrete blocking operation it found. Re-acquiring a mutex already
// held is reported as a self-deadlock. Acquiring a *different* mutex
// under a lock is deliberately not reported (that is lock-ordering
// territory, meaningless without a global order), and interface or
// dynamic dispatch under a lock is not judged — the implementations
// are judged in their own bodies, where their own lock context is
// known.
//
// A justified exception takes //mclegal:lockguard <why> on the line.
package lockguard

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the lock-discipline check.
var Analyzer = &framework.Analyzer{
	Name:      "lockguard",
	Doc:       "infer each field's guarding mutex and enforce it everywhere; forbid blocking ops under a lock (suppress with //mclegal:lockguard)",
	Program:   findings,
	Scope:     scope.ConcurrencyScope,
	Directive: "lockguard",
	Example:   "//mclegal:lockguard read is of an atomic counter; the mutex guards only the map",
}

// guardState accumulates the findings of one program run.
type guardState struct {
	findings []framework.Finding
}

// accessRec is one field access with its effective guard set (own
// pairing ∪ caller-inherited).
type accessRec struct {
	acc framework.FieldAccess
	eff framework.GuardSet
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	inherited := cg.InheritedHeld()
	mayBlock := cg.MayBlock()
	st := &guardState{}
	byField := make(map[*types.Var][]accessRec)
	var fields []*types.Var

	addAccess := func(a framework.FieldAccess, inheritedHeld framework.GuardSet) {
		if !a.Obj.IsField() || a.Fresh {
			return
		}
		eff := a.Held.Clone()
		for m, mode := range inheritedHeld {
			if mode > eff[m] {
				eff[m] = mode
			}
		}
		if len(byField[a.Obj]) == 0 {
			fields = append(fields, a.Obj)
		}
		byField[a.Obj] = append(byField[a.Obj], accessRec{acc: a, eff: eff})
	}

	for _, n := range cg.Nodes() {
		if n.External() || n.Pkg == nil || !framework.PathMatchesAny(n.Pkg.Path, scope.ConcurrencyScope) {
			continue
		}
		c := n.Conc()
		for _, a := range c.Accesses {
			addAccess(a, inherited[n])
		}
		// Spawned bodies: their accesses carry their own pairing and
		// inherit nothing (a goroutine does not hold its spawner's
		// locks).
		for _, sp := range c.AllSpawns() {
			if sp.Body == nil {
				continue
			}
			for _, a := range sp.Body.Accesses {
				addAccess(a, nil)
			}
		}
		st.checkBlocking(cg, mayBlock, n)
	}

	// Guard inference per field, in first-seen (deterministic walk)
	// order.
	for _, f := range fields {
		st.checkField(f, byField[f])
	}
	return st.findings, nil
}

// checkField infers the field's guard from majority usage and reports
// the accesses that violate it.
func (st *guardState) checkField(f *types.Var, recs []accessRec) {
	// Tally, per candidate mutex, how many accesses hold it with the
	// required mode, and whether any write does.
	guarded := make(map[*types.Var]int)
	writeUnder := make(map[*types.Var]bool)
	var candidates []*types.Var
	for _, r := range recs {
		for m := range r.eff {
			if ok, _ := holdsFor(r, m); !ok {
				continue
			}
			if guarded[m] == 0 {
				candidates = append(candidates, m)
			}
			guarded[m]++
			if r.acc.Write {
				writeUnder[m] = true
			}
		}
	}
	var guard *types.Var
	best := 0
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name() < candidates[j].Name() })
	for _, m := range candidates {
		if writeUnder[m] && guarded[m]*2 > len(recs) && guarded[m] > best {
			guard, best = m, guarded[m]
		}
	}
	if guard == nil {
		return
	}
	for _, r := range recs {
		ok, readOnly := holdsFor(r, guard)
		if ok {
			continue
		}
		kind := "read"
		if r.acc.Write {
			kind = "write"
		}
		if readOnly {
			st.report(r.acc.Pos,
				"write to %s holds only the read lock of %s, its inferred guard (%d/%d accesses hold it); take the write lock or justify with //mclegal:lockguard <why>",
				f.Name(), guard.Name(), best, len(recs))
			continue
		}
		st.report(r.acc.Pos,
			"%s of %s without %s, its inferred guard (%d/%d accesses hold it); hold the mutex or justify with //mclegal:lockguard <why>",
			kind, f.Name(), guard.Name(), best, len(recs))
	}
}

// holdsFor reports whether the access holds m in the mode it needs;
// readOnly flags a write that holds m only in read mode.
func holdsFor(r accessRec, m *types.Var) (ok, readOnly bool) {
	mode := framework.GuardRead
	if r.acc.Write {
		mode = framework.GuardWrite
	}
	if r.eff.Holds(m, mode) {
		return true, false
	}
	return false, r.acc.Write && r.eff.Holds(m, framework.GuardRead)
}

// checkBlocking reports blocking operations performed with a lock
// held, in n's own body and its spawned bodies.
func (st *guardState) checkBlocking(cg *framework.CallGraph, mayBlock map[*framework.Node]*framework.BlockWitness, n *framework.Node) {
	check := func(c *framework.ConcSummary) {
		for _, b := range c.Blocks {
			if b.Kind == framework.BlockLock {
				if b.Mutex != nil && b.Held.Holds(b.Mutex, framework.GuardRead) {
					st.report(b.Pos, "acquires %s while already holding it: self-deadlock", b.Mutex.Name())
				}
				continue
			}
			if m := anyHeld(b.Held); m != nil {
				st.report(b.Pos, "%s while holding %s; blocking under a lock stalls every contender, release it first or justify with //mclegal:lockguard <why>",
					b.Kind, m.Name())
			}
		}
		for _, call := range c.Calls {
			m := anyHeld(call.Held)
			if m == nil {
				continue
			}
			callee := cg.Node(call.Callee)
			w := mayBlock[callee]
			if w == nil {
				continue
			}
			st.report(call.Pos, "call to %s may block (%s in %s) while holding %s; release the lock first or justify with //mclegal:lockguard <why>",
				call.Callee.Name(), w.Kind, w.Owner.Func.Name(), m.Name())
		}
	}
	c := n.Conc()
	check(c)
	for _, sp := range c.AllSpawns() {
		if sp.Body != nil {
			check(sp.Body)
		}
	}
}

// anyHeld returns a deterministic representative of a non-empty guard
// set (the name-smallest mutex), or nil.
func anyHeld(g framework.GuardSet) *types.Var {
	var out *types.Var
	for m := range g {
		if out == nil || m.Name() < out.Name() {
			out = m
		}
	}
	return out
}

func (st *guardState) report(pos token.Pos, format string, args ...any) {
	st.findings = append(st.findings, framework.Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
