package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"logicregression/internal/analysis"
)

// ShiftRange holds the word-level arithmetic on the hot paths to the word
// width. In every //logicreg:hotpath function, each shift amount (`x << k`,
// `x >> k`, `x <<= k`, `x >>= k`, and the `1 << k` mask idiom) must be, as
// written, either a constant in [0, width) or a mask `e & c` with a
// constant c in [0, width). Any other amount can reach the width, which
// zeroes the operand (or wraps a mask to zero), or go negative, which
// panics.
//
// The index half of the hot-path contract, bit-kernel slice indexes in
// bounds, is the compiler's own verdict: TestHotpathGcflagsCrossCheck
// rebuilds internal/bitvec, internal/tt and internal/circuit with
// -d=ssa/check_bce/debug=1 and fails on any bounds check left inside a
// hot-path function. Both halves take a reviewed exception as
// `//logicreg:allow shiftrange <reason>`.
var ShiftRange = &analysis.Analyzer{
	Name: "shiftrange",
	Doc: "requires every hot-path shift amount to be a constant below the " +
		"bit width or masked below it (`e & c`)",
	Run: runShiftRange,
}

func runShiftRange(pass *analysis.Pass) error {
	sup := suppressedLines(pass, "shiftrange")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // a literal is its own function, not hot
				case *ast.BinaryExpr:
					if n.Op == token.SHL || n.Op == token.SHR {
						checkShiftAmount(pass, n.X, n.Y, n.OpPos, sup)
					}
				case *ast.AssignStmt:
					if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
						checkShiftAmount(pass, n.Lhs[0], n.Rhs[0], n.TokPos, sup)
					}
				}
				return true
			})
		}
	}
	return nil
}

func checkShiftAmount(pass *analysis.Pass, operand, amount ast.Expr,
	pos token.Pos, sup map[string]bool) {

	width := bitWidthOf(pass.TypesInfo.TypeOf(operand))
	if width == 0 || shiftAmountBounded(pass.TypesInfo, amount, width) {
		return
	}
	if suppressed(pass, sup, pos) {
		return
	}
	pass.Reportf(pos,
		"shift amount not provably < %d on this hot path: it is neither a "+
			"constant nor masked; mask it (`& %d`)",
		width, width-1)
}

// shiftAmountBounded reports whether amount is, syntactically, a constant
// in [0, width) or `e & c` with a constant c in [0, width).
func shiftAmountBounded(info *types.Info, amount ast.Expr, width int) bool {
	inRange := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Value == nil {
			return false
		}
		c, exact := constant.Int64Val(constant.ToInt(tv.Value))
		return exact && c >= 0 && c < int64(width)
	}
	if inRange(amount) {
		return true
	}
	be, ok := ast.Unparen(amount).(*ast.BinaryExpr)
	return ok && be.Op == token.AND && inRange(be.Y)
}

// bitWidthOf returns the bit width of a (possibly named) integer type, or
// 0 for anything else. int, uint, and uintptr are 64 bits: the repo
// targets 64-bit word kernels (same assumption as the SSA constant
// folder).
func bitWidthOf(t types.Type) int {
	if t == nil {
		return 0
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch basic.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
		return 64
	case types.UntypedInt:
		return 64
	}
	return 0
}
