package flow_test

import (
	"go/ast"
	"testing"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/analyzers"
	"logicregression/internal/analysis/flow"
)

// TestSolverFixpointOnRepo is the property test backing the solver's
// convergence cap: for every function and function literal in the module,
// the constant lattice must reach a fixed point. nilflow's lattice lives
// with its analyzer, which fails its package when the solver does not
// converge; it runs in the same sweep. A lattice or transfer bug that breaks
// monotonicity shows up here as a non-converged solution on real code long
// before an analyzer misreports.
func TestSolverFixpointOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and solves the full module")
	}
	prog, err := analysis.Load("../../..", "logicregression/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	funcs := 0
	probe := &analysis.Analyzer{
		Name: "fixpointprobe",
		Doc:  "test-only: solves every function body and asserts convergence",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					var body *ast.BlockStmt
					name := "func literal"
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Body == nil {
							return true
						}
						body = n.Body
						name = n.Name.Name
					case *ast.FuncLit:
						body = n.Body
					default:
						return true
					}
					funcs++
					pos := pass.Fset.Position(body.Pos())

					g := flow.New(body, pass.TypesInfo)
					if len(g.Blocks) == 0 || g.Blocks[0] == nil {
						t.Errorf("%s: %s: CFG has no entry block", pos, name)
						return true
					}

					if c := flow.SolveConsts(n, pass.TypesInfo); !c.Converged {
						t.Errorf("%s: %s: constant propagation did not converge (%d iterations over %d blocks)",
							pos, name, c.Iterations, len(c.CFG.Blocks))
					}
					return true
				})
			}
			return nil
		},
	}
	if _, err := prog.Run([]*analysis.Analyzer{probe, analyzers.NilFlow}); err != nil {
		t.Fatal(err)
	}
	// The module is not small; a probe that silently analyzed nothing
	// would make this test vacuous.
	if funcs < 300 {
		t.Errorf("probe visited only %d function bodies; expected the full module (300+)", funcs)
	}
}
