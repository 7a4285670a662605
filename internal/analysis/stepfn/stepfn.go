// Package stepfn enforces the stackless-process contract on kernel.StepFn
// bodies (DESIGN.md §11): a step body runs inline on the scheduler's
// goroutine, so it must never call the blocking Proc methods (Compute,
// Sleep, Delay, Exit, Block, ...). Where a goroutine body blocks, a step
// body stores the same typed request via the matching Req* setter and
// returns; calling the blocking variant instead would panic at the first
// yield — this analyzer moves that discovery to lint time.
//
// A "step body" is a function literal in StepFn position: passed to a
// parameter of type kernel.StepFn (SpawnStep and its wrappers), returned
// from a function whose result type is kernel.StepFn (the step-factory
// idiom), or assigned to a StepFn variable or field. Nested function
// literals inside a step body (timer callbacks and the like) run in
// engine context under different rules and are not scanned.
package stepfn

import (
	"go/ast"
	"go/types"

	"lrp/internal/analysis/framework"
)

// Analyzer is the stackless-contract check.
var Analyzer = &framework.Analyzer{
	Name: "stepfn",
	Doc:  "check that StepFn bodies issue requests via Req* setters instead of calling blocking Proc methods",
	Run:  run,
}

const kernelPkg = "lrp/internal/kernel"

// blocking maps each blocking Proc method to the request setter a step
// body must use instead.
var blocking = map[string]string{
	"Compute":       "ReqCompute",
	"ComputeSys":    "ReqComputeSys",
	"ComputeSysFor": "ReqComputeSysFor",
	"Sleep":         "ReqSleep",
	"SleepTimeout":  "ReqSleepTimeout",
	"Delay":         "ReqDelay",
	"Exit":          "ReqExit",
}

func run(pass *framework.Pass) error {
	// The kernel owns the abstraction: the Spawn bridge and the request
	// plumbing legitimately mix both calling conventions.
	if pass.PkgPath == kernelPkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, lit := range StepLiterals(pass, f) {
			checkBody(pass, lit)
		}
	}
	return nil
}

// StepLiterals collects every function literal in StepFn position in f —
// passed to a StepFn parameter, returned from a StepFn result slot, or
// assigned to a StepFn variable or field. Shared with the stepreq
// analyzer, which verifies the request protocol of the same bodies.
func StepLiterals(pass *framework.Pass, f *ast.File) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := map[*ast.FuncLit]bool{}
	add := func(e ast.Expr) {
		if lit, ok := e.(*ast.FuncLit); ok && !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sig := calleeSignature(pass, n)
			if sig == nil {
				return true
			}
			for i, arg := range n.Args {
				if isStepFn(paramType(sig, i)) {
					add(arg)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isStepFn(pass.TypesInfo.TypeOf(lhs)) {
					add(n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && isStepFn(obj.Type()) && i < len(n.Values) {
					add(n.Values[i])
				}
			}
		case *ast.KeyValueExpr:
			if isStepFn(pass.TypesInfo.TypeOf(n.Value)) {
				// Composite-literal fields carry the field's type only when
				// the literal converts; fall back on the key's object type.
				add(n.Value)
			}
			if id, ok := n.Key.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && isStepFn(obj.Type()) {
					add(n.Value)
				}
			}
		case *ast.FuncDecl:
			collectReturns(pass, declSignature(pass, n), n.Body, add)
		case *ast.FuncLit:
			collectReturns(pass, litSignature(pass, n), n.Body, add)
		}
		return true
	})
	return out
}

// collectReturns marks function literals returned in a StepFn result slot
// of the enclosing function, without descending into nested literals
// (those have their own signatures and their own Inspect visit).
func collectReturns(pass *framework.Pass, sig *types.Signature, body *ast.BlockStmt, add func(ast.Expr)) {
	if sig == nil || body == nil {
		return
	}
	idx := stepResultIndexes(sig)
	if len(idx) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, i := range idx {
				if i < len(n.Results) {
					add(n.Results[i])
				}
			}
		}
		return true
	})
}

// checkBody flags blocking Proc calls inside one step body.
func checkBody(pass *framework.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested closures run in engine context
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := pass.TypesInfo.TypeOf(sel.X)
		if !IsProc(recv) {
			return true
		}
		name := sel.Sel.Name
		if req, bad := blocking[name]; bad {
			pass.Reportf(call.Pos(), "step body calls the blocking Proc.%s: a stackless body must store the request with %s and return", name, req)
		} else if name == "Block" {
			pass.Reportf(call.Pos(), "step body calls Proc.Block: a step returns to the scheduler instead of blocking")
		}
		return true
	})
}

// calleeSignature resolves the signature of a call's callee, nil for type
// conversions and non-function callees.
func calleeSignature(pass *framework.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func declSignature(pass *framework.Pass, d *ast.FuncDecl) *types.Signature {
	obj := pass.TypesInfo.Defs[d.Name]
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

func litSignature(pass *framework.Pass, l *ast.FuncLit) *types.Signature {
	tv, ok := pass.TypesInfo.Types[l]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// paramType returns the type of parameter i, folding variadic tails.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if i >= n {
		if !sig.Variadic() {
			return nil
		}
		i = n - 1
	}
	t := sig.Params().At(i).Type()
	if sig.Variadic() && i == n-1 {
		if sl, ok := t.(*types.Slice); ok {
			return sl.Elem()
		}
	}
	return t
}

// stepResultIndexes lists the result slots of type kernel.StepFn.
func stepResultIndexes(sig *types.Signature) []int {
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isStepFn(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// isStepFn reports whether t is the named type lrp/internal/kernel.StepFn.
func isStepFn(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "StepFn" && obj.Pkg() != nil && obj.Pkg().Path() == kernelPkg
}

// IsProc reports whether t is kernel.Proc or a pointer to it.
func IsProc(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Path() == kernelPkg
}
