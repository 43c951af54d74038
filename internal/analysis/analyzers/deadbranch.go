package analyzers

import (
	"fmt"
	"go/ast"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/flow"
)

// DeadBranch flags branch conditions that conditional constant propagation
// (flow.SolveConsts) proves always-true or always-false: one arm can never
// execute. These are either leftover debug scaffolding (`verbose := false`
// threaded into checks) or a refactoring residue where the guarded state
// can no longer occur — both hide real code from tests and readers.
//
// Conditions that the type checker already folds to a constant (`if
// debugBuild` on a const, `if true {}` scoping blocks) are deliberate
// compile-time configuration and are not reported; neither are conditions
// inside branches the propagation has itself proven unreachable, so one
// root cause yields one finding.
var DeadBranch = &analysis.Analyzer{
	Name: "deadbranch",
	Doc: "flags conditions constant propagation proves constant, so one " +
		"branch arm is unreachable at runtime",
	Run: runDeadBranch,
}

func runDeadBranch(pass *analysis.Pass) error {
	sup := suppressedLines(pass, "deadbranch")
	info := pass.TypesInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := flow.SolveConsts(fd, info)
			if !c.Converged {
				return fmt.Errorf("deadbranch: %s: constant propagation did not converge",
					pass.Fset.Position(fd.Pos()))
			}
			for _, b := range c.CFG.Blocks {
				if tv, ok := info.Types[b.Cond]; ok && tv.Value != nil {
					continue // compile-time constant: deliberate configuration
				}
				truth, ok := c.BranchConst(b)
				if !ok || suppressed(pass, sup, b.Cond.Pos()) {
					continue
				}
				arm := "true"
				dead := "false"
				if !truth {
					arm, dead = dead, arm
				}
				pass.Reportf(b.Cond.Pos(),
					"condition is always %s: the %s arm never runs; inline the "+
						"live path or delete the dead one",
					arm, dead)
			}
		}
	}
	return nil
}
