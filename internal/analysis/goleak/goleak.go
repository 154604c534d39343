// Package goleak statically proves that every goroutine spawned in the
// concurrency scope (scope.ConcurrencyScope) is joined on all paths —
// the static twin of the dynamic leak tests
// (mgl.TestPoolShutdownNoGoroutineLeak, the shard-runner leak tests,
// the serve drain tests), whose witness pairing is pinned by
// TestGoleakRootsMatchLeakTests.
//
// For each `go` statement the analyzer takes the spawned body's
// concurrency summary (framework.ConcSummary — a literal's own
// sub-summary, or the callee's summary for `go f()`) and demands two
// proofs:
//
//   - Termination: every channel the body receives from has an
//     in-program sender or closer, and every channel it sends on has an
//     in-program receiver outside the body — otherwise the goroutine
//     can block forever. Channels the summary cannot resolve to a
//     variable fail closed.
//   - Join: the body ends in a handoff some other goroutine waits on —
//     a WaitGroup.Done (deferred, so it covers every exit path, or as
//     the literal last statement) paired with an in-program Add and
//     Wait on the same WaitGroup, or a tail send on a result-slot
//     channel that is received outside the body. This is exactly the
//     PR-3 pool shutdown shape (close(work) + workers.Wait()) and the
//     shard runner's wg.Add/Done/Wait pairing.
//
// Spawns of dynamic function values and of externals without bodies
// fail closed: their lifetime cannot be proven. A goroutine that is
// intentionally never joined — the mclegald signal listener that lives
// until process exit — takes //mclegal:daemon <why> on the line above
// the go statement; the justification is mandatory.
package goleak

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the goroutine-lifetime check.
var Analyzer = &framework.Analyzer{
	Name:      "goleak",
	Doc:       "prove every spawned goroutine terminates and is joined (suppress daemons with //mclegal:daemon)",
	Program:   findings,
	Scope:     scope.ConcurrencyScope,
	Directive: "daemon",
	Example:   "//mclegal:daemon process-lifetime signal listener; the kernel reaps it at exit",
}

// A SpawnInfo describes one in-scope spawn site of the program; the
// root-sync test uses the inventory to pin the static proof to the
// dynamic leak tests.
type SpawnInfo struct {
	// Fn is the function whose body contains the go statement.
	Fn *types.Func
	// Pos is the go statement's position.
	Pos token.Pos
	// Daemon reports a //mclegal:daemon directive on the site.
	Daemon bool
}

type spawn struct {
	site   *framework.SpawnSite
	owner  *framework.Node
	daemon bool
	// problems is empty when both the termination and join proofs
	// succeeded.
	problems []string
}

// opIndex collects the program-wide channel and WaitGroup operations
// the proofs consult: a worker body's `range p.work` is serviced by
// run()'s sends and stop()'s close, which live in other functions.
type opIndex struct {
	sends, recvs, closes map[*types.Var][]token.Pos
	adds, waits          map[*types.Var][]token.Pos
}

type leakState struct {
	spawns []*spawn
}

// Spawns returns the in-scope spawn inventory in source order.
func Spawns(prog *framework.Program) ([]SpawnInfo, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	out := make([]SpawnInfo, len(st.spawns))
	for i, sp := range st.spawns {
		out[i] = SpawnInfo{Fn: sp.owner.Func, Pos: sp.site.Pos, Daemon: sp.daemon}
	}
	return out, nil
}

func state(prog *framework.Program) (*leakState, error) {
	v, err := prog.CacheLoad("goleak", func() (any, error) { return computeState(prog) })
	if err != nil {
		return nil, err
	}
	return v.(*leakState), nil
}

func computeState(prog *framework.Program) (*leakState, error) {
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	idx := &opIndex{
		sends:  make(map[*types.Var][]token.Pos),
		recvs:  make(map[*types.Var][]token.Pos),
		closes: make(map[*types.Var][]token.Pos),
		adds:   make(map[*types.Var][]token.Pos),
		waits:  make(map[*types.Var][]token.Pos),
	}
	record := func(m map[*types.Var][]token.Pos, v *types.Var, pos token.Pos) {
		if v != nil {
			m[v] = append(m[v], pos)
		}
	}
	for _, n := range cg.Nodes() {
		if n.External() {
			continue
		}
		c := n.Conc()
		for _, op := range c.Sends {
			record(idx.sends, op.Ch, op.Pos)
		}
		for _, op := range c.Recvs {
			record(idx.recvs, op.Ch, op.Pos)
		}
		for _, op := range c.Closes {
			record(idx.closes, op.Ch, op.Pos)
		}
		for _, op := range c.WGAdds {
			record(idx.adds, op.Obj, op.Pos)
		}
		for _, op := range c.WGWaits {
			record(idx.waits, op.Obj, op.Pos)
		}
	}

	st := &leakState{}
	for _, n := range cg.Nodes() {
		if n.External() || n.Pkg == nil || !framework.PathMatchesAny(n.Pkg.Path, scope.ConcurrencyScope) {
			continue
		}
		for _, site := range n.Conc().AllSpawns() {
			sp := &spawn{site: site, owner: n}
			_, sp.daemon = prog.DirectiveAt("daemon", site.Pos)
			if !sp.daemon {
				sp.problems = judge(cg, idx, n.Pkg.Info, site)
			}
			st.spawns = append(st.spawns, sp)
		}
	}
	fset := prog.Fset()
	sort.SliceStable(st.spawns, func(i, j int) bool {
		pi, pj := fset.Position(st.spawns[i].site.Pos), fset.Position(st.spawns[j].site.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return st, nil
}

// judge produces the list of reasons the spawn is unproven (empty when
// both proofs succeed).
func judge(cg *framework.CallGraph, idx *opIndex, info *types.Info, site *framework.SpawnSite) []string {
	var problems []string
	body := site.Body
	var bindings map[*types.Var]*types.Var
	var bodyStart, bodyEnd token.Pos
	switch {
	case body != nil:
		bodyStart, bodyEnd = site.BodyLit.Pos(), site.BodyLit.End()
	case site.Callee != nil:
		callee := cg.Node(site.Callee)
		if callee == nil || callee.External() {
			return []string{fmt.Sprintf("spawn target %s has no analyzable body", site.Callee.FullName())}
		}
		body = callee.Conc()
		bodyStart, bodyEnd = callee.Decl.Pos(), callee.Decl.End()
		// The callee's facts are keyed on its parameters; translate
		// them to the variables the spawner bound at the go statement
		// so `go worker(&wg, ch)` proves against the spawner's wg/ch.
		bindings = framework.SpawnBindings(info, site)
	default:
		return []string{"spawn target is a dynamic function value; its lifetime cannot be proven"}
	}

	// translate maps a body-frame variable into the spawner's frame;
	// an unresolvable binding comes back nil and fails closed below.
	translate := func(v *types.Var) *types.Var {
		if bound, ok := bindings[v]; ok {
			return bound
		}
		return v
	}

	inBody := func(pos token.Pos) bool { return pos >= bodyStart && pos <= bodyEnd }
	outside := func(positions []token.Pos) bool {
		for _, p := range positions {
			if !inBody(p) {
				return true
			}
		}
		return false
	}

	// Termination: the body's own channel waits must be serviceable.
	for _, op := range body.Recvs {
		ch := op.Ch
		if ch != nil {
			ch = translate(ch)
		}
		if ch == nil {
			problems = append(problems, "receives on a channel the analysis cannot resolve")
			break
		}
		if len(idx.sends[ch]) == 0 && len(idx.closes[ch]) == 0 {
			problems = append(problems,
				fmt.Sprintf("receives on %s, which nothing in the program sends to or closes", ch.Name()))
		}
	}
	for _, op := range body.Sends {
		ch := op.Ch
		if ch != nil {
			ch = translate(ch)
		}
		if ch == nil {
			problems = append(problems, "sends on a channel the analysis cannot resolve")
			break
		}
		if !outside(idx.recvs[ch]) {
			problems = append(problems,
				fmt.Sprintf("sends on %s, which is never received outside the goroutine", ch.Name()))
		}
	}

	// Join: a Done the spawner (or anyone) waits on, or a tail result
	// send someone receives.
	joined := false
	if wg := body.TailDone; wg != nil {
		wg = translate(wg)
		if wg != nil && len(idx.adds[wg]) > 0 && len(idx.waits[wg]) > 0 {
			joined = true
		}
	}
	if ch := body.TailSend; !joined && ch != nil {
		if ch = translate(ch); ch != nil && outside(idx.recvs[ch]) {
			joined = true
		}
	}
	if !joined {
		problems = append(problems,
			"no join handoff: body neither defers/tails a WaitGroup.Done with a matching Add+Wait nor tail-sends on a channel received elsewhere")
	}
	return dedup(problems)
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// findings reports every unproven spawn, and every daemon spawn so its
// //mclegal:daemon directive is held to its justification.
func findings(prog *framework.Program) ([]framework.Finding, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	var out []framework.Finding
	for _, sp := range st.spawns {
		if len(sp.problems) == 0 && !sp.daemon {
			continue
		}
		out = append(out, framework.Finding{Pos: sp.site.Pos, Message: fmt.Sprintf(
			"goroutine is not provably joined: %s; restructure to a joined shape or justify with //mclegal:daemon <why>",
			strings.Join(sp.problems, "; "))})
	}
	return out, nil
}
