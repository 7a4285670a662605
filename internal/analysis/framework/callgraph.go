package framework

// Interprocedural support: a Program bundles every package loaded for one
// analysis run and lazily builds a whole-program call graph over the typed
// ASTs. The graph is CHA/RTA-style: static calls and method calls resolve
// directly from go/types object identity; calls through an interface
// method expand to the matching concrete method of every named type in the
// loaded program whose method set implements that interface. Calls through
// function values (fields, parameters, closures) and reflection are not
// resolved — this is the documented unsoundness (DESIGN.md §12); the
// protocols those values implement (kernel.StepFn) get their own dedicated
// path-sensitive analyzer instead.
//
// The graph is built once per Program and memoized; analyzers share it
// through Pass.Prog as a read-only fact store.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view of one analysis run. Pkgs are the
// packages under analysis (whose passes report diagnostics); All is the
// analysis universe — Pkgs plus every module-internal dependency the
// loader pulled in — over which the call graph and cross-package
// suppressions are computed.
type Program struct {
	Pkgs []*Package
	All  []*Package

	graph *CallGraph
}

// NewProgram builds a Program. all may be nil, in which case the universe
// is just pkgs.
func NewProgram(pkgs, all []*Package) *Program {
	if all == nil {
		all = pkgs
	}
	return &Program{Pkgs: pkgs, All: all}
}

// FuncInfo ties a function object to its declaration and home package.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Edge is one resolved call: Caller invokes Callee at Site.
type Edge struct {
	Site   token.Pos
	Caller *types.Func
	Callee *types.Func
	// InPanic marks a call lexically inside a panic(...) statement or its
	// arguments: cold by definition, so allocation analyses skip it.
	InPanic bool
	// ViaIface marks an edge produced by interface method-set expansion
	// rather than static resolution (a may-call, not a must-call).
	ViaIface bool
}

// CallGraph is the memoized whole-program call graph.
type CallGraph struct {
	funcs []*FuncInfo // deterministic order: by package path, then position
	info  map[*types.Func]*FuncInfo
	out   map[*types.Func][]Edge

	namedTypes []*types.Named                // concrete named types in the program
	implCache  map[*types.Func][]*types.Func // interface method -> concrete methods
}

// CallGraph returns the program's call graph, building it on first use.
// The build is single-threaded, like everything in this framework.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p.All)
	}
	return p.graph
}

// Funcs lists every function and method with a body in the program, in
// deterministic order.
func (g *CallGraph) Funcs() []*FuncInfo { return g.funcs }

// Info returns the declaration record for fn, or nil when fn has no body
// in the loaded program (stdlib, interface methods).
func (g *CallGraph) Info(fn *types.Func) *FuncInfo { return g.info[fn] }

// Callees returns fn's outgoing edges in source order.
func (g *CallGraph) Callees(fn *types.Func) []Edge { return g.out[fn] }

// ShortName renders fn compactly for diagnostics: pkgname.Func or
// pkgname.(*Recv).Method.
func ShortName(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		recv := ""
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
			recv = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			recv += named.Obj().Name()
		} else {
			recv += rt.String()
		}
		name = "(" + recv + ")." + name
	}
	if fn.Pkg() != nil {
		if i := strings.LastIndex(fn.Pkg().Path(), "/"); i >= 0 {
			return fn.Pkg().Path()[i+1:] + "." + name
		}
		return fn.Pkg().Path() + "." + name
	}
	return name
}

// PathFrom returns a shortest call path (as edges) from root to target, or
// nil when target is unreachable from root. Deterministic: ties break in
// edge (source) order.
func (g *CallGraph) PathFrom(root, target *types.Func) []Edge {
	if root == target {
		return []Edge{}
	}
	prev := map[*types.Func]Edge{}
	queue := []*types.Func{root}
	seen := map[*types.Func]bool{root: true}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.out[fn] {
			if seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			prev[e.Callee] = e
			if e.Callee == target {
				var path []Edge
				for at := target; at != root; {
					e := prev[at]
					path = append([]Edge{e}, path...)
					at = e.Caller
				}
				return path
			}
			queue = append(queue, e.Callee)
		}
	}
	return nil
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		info:      map[*types.Func]*FuncInfo{},
		out:       map[*types.Func][]Edge{},
		implCache: map[*types.Func][]*types.Func{},
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	// Index every declared function/method with a body.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				g.info[fn] = fi
				g.funcs = append(g.funcs, fi)
			}
		}
		// Concrete named types for interface dispatch resolution.
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
	// Edges. Calls inside nested function literals are attributed to the
	// enclosing declared function: the literal may run later, but it is
	// still code the caller put in motion.
	for _, fi := range g.funcs {
		g.addEdges(fi)
	}
	return g
}

// addEdges walks one function body collecting call edges, tracking whether
// the walk is inside a panic(...) statement.
func (g *CallGraph) addEdges(fi *FuncInfo) {
	var walk func(n ast.Node, inPanic bool)
	walk = func(n ast.Node, inPanic bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := fi.Pkg.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					for _, a := range call.Args {
						walk(a, true)
					}
					return false
				}
			}
			g.resolveCall(fi, call, inPanic)
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

// resolveCall records the edge(s) for one call expression. A call of a
// generic function, or of a method of a generic type, names an
// instantiated object (info.Uses, Selection.Obj); the edge goes to its
// Origin, the declared function the graph indexes.
func (g *CallGraph) resolveCall(fi *FuncInfo, call *ast.CallExpr, inPanic bool) {
	info := fi.Pkg.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	add := func(callee *types.Func, viaIface bool) {
		g.out[fi.Fn] = append(g.out[fi.Fn], Edge{
			Site: call.Pos(), Caller: fi.Fn, Callee: callee,
			InPanic: inPanic, ViaIface: viaIface,
		})
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			add(fn.Origin(), false)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if recvIface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				for _, impl := range g.implementations(m, recvIface) {
					add(impl, true)
				}
				return
			}
			add(m.Origin(), false)
			return
		}
		// Package-qualified function: pkg.F().
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			add(fn.Origin(), false)
		}
	}
	// Anything else (call of a function value, index expression, ...) is a
	// dynamic call the graph does not resolve.
}

// implementations returns the concrete methods that a call to interface
// method m (on iface) may dispatch to, restricted to types declared in the
// loaded program. Memoized per interface method.
func (g *CallGraph) implementations(m *types.Func, iface *types.Interface) []*types.Func {
	if impls, ok := g.implCache[m]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			// Only methods with bodies in the program are useful targets.
			if g.info[fn] != nil {
				impls = append(impls, fn)
			}
		}
	}
	g.implCache[m] = impls
	return impls
}
