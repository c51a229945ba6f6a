// Package enginestop enforces the PR-1 budget contract statically: an
// unbounded solver loop (a `for` with no condition) in a registered
// solver package must have a reachable exit driven by the budget
// Engine, by its context, or by a channel signal. The conformance kit
// probes this dynamically (a solver that ignores its budget eventually
// times a test out); this pass catches it at review time.
//
// A nil-condition loop is compliant when its body (excluding nested
// function literals) contains at least one of:
//   - a call to a solver.Engine budget/stop method (StopSweep,
//     StopStep, Expired, EvalsExhausted, Observe, …),
//   - a ctx.Err() call or a receive from ctx.Done(),
//   - a select case (or default) whose body leaves the loop via
//     return or a labeled branch — the stop-channel pattern.
package enginestop

import (
	"go/ast"
	"go/token"

	"gridsched/internal/lint/analysis"
	"gridsched/internal/lint/analyzers/lintutil"
)

// Analyzer is the enginestop pass.
var Analyzer = &analysis.Analyzer{
	Name: "enginestop",
	Doc:  "flags infinite solver loops that neither poll the budget Engine nor check their context",
	Run:  run,
}

// solverPackages are the registered solver implementations plus the
// shared evolution core.
var solverPackages = map[string]bool{
	"gridsched/internal/core":       true,
	"gridsched/internal/heuristics": true,
	"gridsched/internal/tabu":       true,
	"gridsched/internal/baselines":  true,
	"gridsched/internal/portfolio":  true,
}

const solverPkg = "gridsched/internal/solver"

// engineMethods are the Engine calls that count as polling the budget.
var engineMethods = map[string]bool{
	"StopSweep": true, "StopStep": true, "Expired": true,
	"EvalsExhausted": true, "Observe": true, "Evals": true,
	"AddEvals": true, "GenerationsDone": true, "RemainingEvals": true,
	"RemainingDuration": true, "Transfer": true,
}

func run(pass *analysis.Pass) error {
	if !solverPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !hasStopCheck(pass, loop.Body) {
				pass.Reportf(loop.For, "infinite loop polls neither the budget Engine (StopSweep/StopStep/Expired/EvalsExhausted/…) nor its context (ctx.Err, <-ctx.Done); every solver loop needs a budget-driven exit")
			}
			return true
		})
	}
	return nil
}

func hasStopCheck(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's body does not gate this loop
		case *ast.CallExpr:
			if recv, method, ok := lintutil.MethodCall(n); ok {
				rt := lintutil.TypeOf(pass.TypesInfo, recv)
				if engineMethods[method] && lintutil.IsNamed(rt, solverPkg, "Engine") {
					found = true
				}
				if method == "Err" && lintutil.IsContext(rt) {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCtxDone(pass, n.X) {
				found = true
			}
		case *ast.SelectStmt:
			for _, cc := range n.Body.List {
				if caseLeavesLoop(cc.(*ast.CommClause)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isCtxDone matches x.Done() for a context.Context x.
func isCtxDone(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, method, ok := lintutil.MethodCall(call)
	return ok && method == "Done" && lintutil.IsContext(lintutil.TypeOf(pass.TypesInfo, recv))
}

// caseLeavesLoop reports whether a select case's body escapes the
// enclosing loop: a return, or a labeled break/continue/goto. (A bare
// break inside a select leaves only the select.)
func caseLeavesLoop(cc *ast.CommClause) bool {
	leaves := false
	for _, s := range cc.Body {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				leaves = true
			case *ast.BranchStmt:
				if n.Label != nil {
					leaves = true
				}
			}
			return !leaves
		})
		if leaves {
			return true
		}
	}
	return false
}
