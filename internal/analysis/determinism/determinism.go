// Package determinism enforces the repository's reproducibility invariant:
// simulation results must be a pure function of configuration and seed.
// PAPER.md's four-architecture comparison is only meaningful because every
// run replays identical load; one wall-clock read or one map-ordered event
// emission silently breaks that.
//
// Inside the sim-core packages the analyzer forbids:
//
//   - wall-clock time: any import of "time" and any call to its clock or
//     timer constructors (time.Now, time.Since, time.NewTimer, ...). The
//     simulation advances time only through sim.Engine.
//   - global math/rand state: package-level generator functions
//     (rand.Intn, rand.Seed, ...). Explicitly seeded sources are the
//     repo's own sim.Rand; math/rand.New is tolerated for interop.
//   - map iteration: every range over a map, because Go randomizes
//     iteration order per run. Iterate a deterministic slice instead, or
//     sort the keys first.
//
// Across all internal packages (not just sim-core) it forbids goroutine
// creation, select statements, and imports of sync or sync/atomic, with
// two escapes: lrp/internal/runner (the experiment sweep worker pool —
// the one deliberately concurrent package) is allowlisted wholesale, and
// the kernel may mark a `go` statement with `//lrp:coroutine` for the
// Spawn bridge's process goroutines, which hand a baton back and forth
// with the scheduler so exactly one goroutine runs at a time and are
// therefore deterministic.
//
// The wall-clock, global-rand, and map-iteration bans are also enforced
// transitively: a helper outside the sim-core set that is reachable (via
// the program call graph) from a sim-core function is held to the same
// rules, and the finding is reported at the offending site with the call
// chain from sim-core. Without this, moving `time.Now()` into a helper
// package would silence the analyzer while still poisoning the results.
// Reachability stops at lrp/internal/runner (allowlisted wholesale: the
// sweep scheduler legitimately times and shuffles work across real
// goroutines) and does not cross dynamic calls — see DESIGN.md §12.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lrp/internal/analysis/framework"
)

// Analyzer is the determinism check.
var Analyzer = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, global math/rand, map iteration, and unmanaged concurrency in simulation code",
	Run:  run,
}

// simCore lists the packages that execute inside a simulation run. Code
// here feeds event scheduling or experiment output, so all four rule
// groups apply.
var simCore = map[string]bool{
	"lrp/internal/sim":    true,
	"lrp/internal/core":   true,
	"lrp/internal/kernel": true,
	"lrp/internal/netsim": true,
	"lrp/internal/nic":    true,
	"lrp/internal/tcp":    true,
	"lrp/internal/demux":  true,
	"lrp/internal/fifo":   true,
	"lrp/internal/mbuf":   true,
	"lrp/internal/pkt":    true,
	"lrp/internal/ipv4":   true,
	"lrp/internal/socket": true,
	"lrp/internal/fault":  true,
	"lrp/internal/smp":    true,
	"lrp/internal/topo":   true,
	"lrp/internal/pop":    true,
}

// concurrencyAllowed lists packages exempt from the goroutine/sync rules.
var concurrencyAllowed = map[string]bool{
	"lrp/internal/runner": true,
}

// coroutinePkg is the only package whose `go` statements may carry the
// //lrp:coroutine waiver: the kernel's Spawn bridge hosts process bodies
// on goroutines driven by strict channel handoff (exactly one runnable
// at any instant).
const coroutinePkg = "lrp/internal/kernel"

// bannedTime are the "time" package functions that read the wall clock or
// create real timers.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRand are the math/rand (and math/rand/v2) package-level functions
// backed by the shared global generator.
var bannedRand = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func run(pass *framework.Pass) error {
	core := simCore[pass.PkgPath]
	internal := strings.HasPrefix(pass.PkgPath, "lrp/internal/")
	checkConc := (core || internal) && !concurrencyAllowed[pass.PkgPath]
	if !core && !checkConc {
		return nil
	}
	if core {
		transitive(pass)
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch path {
			case "time":
				if core {
					pass.Reportf(imp.Pos(), "sim-core package imports %q: simulation layers must use sim.Time and the engine clock, never the wall clock", path)
				}
			case "sync", "sync/atomic":
				if checkConc {
					pass.Reportf(imp.Pos(), "package imports %q: the simulation is single-threaded by construction; only internal/runner may synchronize", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !checkConc {
					return true
				}
				if pass.PkgPath == coroutinePkg && pass.LineDirective(n.Pos(), "lrp:coroutine") {
					return true
				}
				pass.Reportf(n.Pos(), "go statement spawns a goroutine: simulation code is single-threaded (kernel coroutines must carry //lrp:coroutine)")
			case *ast.SelectStmt:
				if checkConc {
					pass.Reportf(n.Pos(), "select statement: simulation code is single-threaded by construction")
				}
			case *ast.SelectorExpr:
				if !core {
					return true
				}
				pkgName, ok := selectorPackage(pass, n)
				if !ok {
					return true
				}
				switch pkgName {
				case "time":
					if bannedTime[n.Sel.Name] {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock or arms a real timer: use the sim.Engine clock (Now/At/After)", n.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					if bannedRand[n.Sel.Name] {
						pass.Reportf(n.Pos(), "%s.%s uses the shared global generator: use an explicitly seeded sim.Rand", pkgName, n.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				if !core {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "range over map iterates in randomized order: iterate a deterministic slice or sort the keys first")
				}
			}
			return true
		})
	}
	return nil
}

// selectorPackage resolves sel's qualifier to an imported package path,
// reporting ok=false for ordinary field/method selectors.
func selectorPackage(pass *framework.Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// finding is one sim-core-rule violation inside a helper function.
type finding struct {
	pos token.Pos
	msg string
}

// findingCache memoizes helper scans across roots and passes, keyed by
// declaration identity (stable for the lifetime of a loader).
var findingCache = map[*ast.FuncDecl][]finding{}

// transitive applies the sim-core time/rand/map-order rules to every
// module-internal helper reachable from a function declared in this
// sim-core package, reporting at the helper's offending site with the
// call chain from the root.
func transitive(pass *framework.Pass) {
	g := pass.Prog.CallGraph()
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if root == nil {
				continue
			}
			type frame struct {
				fn    *types.Func
				chain []*types.Func
			}
			visited := map[*types.Func]bool{root: true}
			var stack []frame
			push := func(from *types.Func, chain []*types.Func) {
				for _, e := range g.Callees(from) {
					if visited[e.Callee] {
						continue
					}
					fi := g.Info(e.Callee)
					if fi == nil {
						continue // no body in the program (stdlib)
					}
					// Sim-core packages are checked by their own pass;
					// runner is allowlisted; non-module code is out of
					// scope.
					if simCore[fi.Pkg.Path] || concurrencyAllowed[fi.Pkg.Path] ||
						!strings.HasPrefix(fi.Pkg.Path, "lrp/") {
						continue
					}
					visited[e.Callee] = true
					next := append(append([]*types.Func(nil), chain...), e.Callee)
					stack = append(stack, frame{fn: e.Callee, chain: next})
				}
			}
			push(root, nil)
			for len(stack) > 0 {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				fi := g.Info(fr.fn)
				for _, fnd := range scanHelper(fi) {
					if reported[fnd.pos] {
						continue
					}
					reported[fnd.pos] = true
					pass.Reportf(fnd.pos, "%s (reached from sim-core via %s)",
						fnd.msg, chainString(root, fr.chain))
				}
				push(fr.fn, fr.chain)
			}
		}
	}
}

// chainString renders root -> f -> g for the diagnostic.
func chainString(root *types.Func, chain []*types.Func) string {
	s := framework.ShortName(root)
	for _, fn := range chain {
		s += " -> " + framework.ShortName(fn)
	}
	return s
}

// scanHelper collects the sim-core-rule violations (banned time/rand
// selectors, map iteration) in one helper body, memoized.
func scanHelper(fi *framework.FuncInfo) []finding {
	if cached, ok := findingCache[fi.Decl]; ok {
		return cached
	}
	var out []finding
	info := fi.Pkg.TypesInfo
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch path := pn.Imported().Path(); path {
			case "time":
				if bannedTime[n.Sel.Name] {
					out = append(out, finding{n.Pos(), fmt.Sprintf(
						"time.%s reads the wall clock or arms a real timer: use the sim.Engine clock (Now/At/After)", n.Sel.Name)})
				}
			case "math/rand", "math/rand/v2":
				if bannedRand[n.Sel.Name] {
					out = append(out, finding{n.Pos(), fmt.Sprintf(
						"%s.%s uses the shared global generator: use an explicitly seeded sim.Rand", path, n.Sel.Name)})
				}
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				out = append(out, finding{n.Pos(),
					"range over map iterates in randomized order: iterate a deterministic slice or sort the keys first"})
			}
		}
		return true
	})
	findingCache[fi.Decl] = out
	return out
}
