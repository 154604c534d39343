// Package sharedwrite is a lightweight static race screen over the
// concurrency scope (scope.ConcurrencyScope): it turns the chaos
// suite's schedule-dependent -race coverage into a schedule-independent
// check for the most common race shape — a location written inside a
// spawned goroutine's call tree and touched by the spawner's
// continuation while the goroutine may still be running.
//
// For every function containing a go statement the analyzer collects
// the spawn's write set: variables and fields written directly in the
// spawned body plus fields written by its static callees (transitive,
// visited-set bounded; constructor-fresh writes excluded — a callee
// mutating its own fresh struct is not shared state). It then scans
// the spawning function's top-level statements with a three-state
// machine:
//
//	pre   — before any spawn: accesses are initialization, exempt
//	        (happens-before the goroutine via the go statement);
//	live  — after a spawn: any access to a write-set location is
//	        diagnosed, unless both sides hold a common mutex;
//	synced — after a barrier: a WaitGroup.Wait, channel op,
//	        default-less select, or a static call that transitively
//	        blocks (CallGraph.MayBlock). The barrier is treated as the
//	        join edge; later accesses are exempt.
//
// Mutex acquisition is deliberately NOT a barrier — taking a lock in
// the continuation orders nothing unless the goroutine takes the same
// lock, which is exactly the common-guard exemption. Interface and
// dynamic calls inside the spawned tree are skipped (may-analysis:
// the screen reports only what it can prove is written), and a
// statement containing both a spawn and a barrier is treated as
// internally joined. This is a screen, not a proof — the dynamic
// -race chaos suites remain the backstop (docs/ROBUSTNESS.md).
//
// A justified exception takes //mclegal:sharedwrite <why> on the line.
package sharedwrite

import (
	"fmt"
	"go/token"
	"go/types"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the static race screen.
var Analyzer = &framework.Analyzer{
	Name:      "sharedwrite",
	Doc:       "flag unguarded continuation accesses to locations a live spawned goroutine writes (suppress with //mclegal:sharedwrite)",
	Program:   findings,
	Scope:     scope.ConcurrencyScope,
	Directive: "sharedwrite",
	Example:   "//mclegal:sharedwrite the workers write disjoint index ranges; the race detector runs this path in CI",
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	mayBlock := cg.MayBlock()
	var out []framework.Finding
	fset := prog.Fset()
	for _, n := range cg.Nodes() {
		if n.External() || n.Pkg == nil || !framework.PathMatchesAny(n.Pkg.Path, scope.ConcurrencyScope) {
			continue
		}
		if len(n.Conc().Spawns) == 0 {
			continue
		}
		out = append(out, screen(cg, mayBlock, fset, n)...)
	}
	return out, nil
}

// writeSet is the locations a spawn's call tree writes, each with the
// intersection of guard sets across its inside writes (nil once any
// inside write is unguarded).
type writeSet map[*types.Var]framework.GuardSet

func (ws writeSet) add(v *types.Var, held framework.GuardSet) {
	have, seen := ws[v]
	if !seen {
		ws[v] = held.Clone()
		return
	}
	for m, mode := range have {
		got, ok := held[m]
		if !ok {
			delete(have, m)
		} else if got < mode {
			have[m] = got
		}
	}
}

// collectWrites accumulates the write set of one spawned body: its
// direct non-fresh writes, plus the non-fresh field writes of its
// static callees, transitively.
func collectWrites(cg *framework.CallGraph, ws writeSet, body *framework.ConcSummary, visited map[*framework.Node]bool) {
	for _, a := range body.Accesses {
		if a.Write && !a.Fresh {
			ws.add(a.Obj, a.Held)
		}
	}
	for _, call := range body.Calls {
		collectCalleeWrites(cg, ws, cg.Node(call.Callee), visited)
	}
	for _, sp := range body.Spawns {
		if sp.Body != nil {
			collectWrites(cg, ws, sp.Body, visited)
		} else if sp.Callee != nil {
			collectCalleeWrites(cg, ws, cg.Node(sp.Callee), visited)
		}
	}
}

// collectCalleeWrites adds a callee's transitive non-fresh FIELD
// writes (its locals are its own frame; only fields outlive the call).
func collectCalleeWrites(cg *framework.CallGraph, ws writeSet, n *framework.Node, visited map[*framework.Node]bool) {
	if n == nil || n.External() || visited[n] {
		return
	}
	visited[n] = true
	c := n.Conc()
	for _, a := range c.Accesses {
		if a.Write && !a.Fresh && a.Obj.IsField() {
			ws.add(a.Obj, a.Held)
		}
	}
	for _, call := range c.Calls {
		collectCalleeWrites(cg, ws, cg.Node(call.Callee), visited)
	}
	for _, sp := range c.AllSpawns() {
		if sp.Body != nil {
			collectWrites(cg, ws, sp.Body, visited)
		}
	}
}

// screen runs the pre/live/synced statement machine over one spawning
// function.
func screen(cg *framework.CallGraph, mayBlock map[*framework.Node]*framework.BlockWitness, fset *token.FileSet, n *framework.Node) []framework.Finding {
	var out []framework.Finding
	c := n.Conc()
	in := func(pos, lo, hi token.Pos) bool { return pos >= lo && pos <= hi }

	live := false
	var liveWrites writeSet
	var liveSpawn token.Pos
	for _, stmt := range n.Decl.Body.List {
		lo, hi := stmt.Pos(), stmt.End()

		barrier := false
		for _, b := range c.Blocks {
			if b.Kind != framework.BlockLock && in(b.Pos, lo, hi) {
				barrier = true
				break
			}
		}
		if !barrier {
			for _, call := range c.Calls {
				if in(call.Pos, lo, hi) && mayBlock[cg.Node(call.Callee)] != nil {
					barrier = true
					break
				}
			}
		}

		var spawned []*framework.SpawnSite
		for _, sp := range c.Spawns {
			if in(sp.Pos, lo, hi) {
				spawned = append(spawned, sp)
			}
		}

		if barrier {
			// The barrier is the join edge; a statement that both
			// spawns and blocks (a whole pool setup in one block) is
			// treated as internally joined.
			live = false
			liveWrites = nil
			continue
		}
		if live {
			for _, a := range c.Accesses {
				if !in(a.Pos, lo, hi) {
					continue
				}
				guards, written := liveWrites[a.Obj]
				if !written {
					continue
				}
				if commonGuard(a.Held, guards) {
					continue
				}
				kind := "read"
				if a.Write {
					kind = "write"
				}
				out = append(out, framework.Finding{
					Pos: a.Pos,
					Message: fmt.Sprintf("%s of %s races the goroutine spawned at line %d, which writes it with no common guard and no join in between; join first, guard both sides, or justify with //mclegal:sharedwrite <why>",
						kind, a.Obj.Name(), fset.Position(liveSpawn).Line),
				})
			}
		}
		if len(spawned) > 0 {
			if !live {
				liveWrites = make(writeSet)
				liveSpawn = spawned[0].Pos
			}
			live = true
			for _, sp := range spawned {
				visited := make(map[*framework.Node]bool)
				if sp.Body != nil {
					collectWrites(cg, liveWrites, sp.Body, visited)
				} else if sp.Callee != nil {
					collectCalleeWrites(cg, liveWrites, cg.Node(sp.Callee), visited)
				}
				// Dynamic spawn targets contribute nothing: goleak
				// already fails closed on them.
			}
		}
	}
	return out
}

// commonGuard reports whether the continuation access and every inside
// write hold at least one mutex in common.
func commonGuard(outside, inside framework.GuardSet) bool {
	for m := range inside {
		if outside.Holds(m, framework.GuardRead) {
			return true
		}
	}
	return false
}
