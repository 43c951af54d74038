// Package mutation is the source mutation gate: a go/ast mutator applies
// classic operators (conditional boundary, equality, arithmetic and logic
// swaps, negated conditions, off-by-one loop bounds, dropped early returns)
// at every site on the selected lines of a package, compiles each mutant
// with `go build -overlay` and runs that package's tests against it. A
// mutant the tests do not kill is a survivor; the gate fails on any
// survivor that MUTATION_BASELINE.json does not triage as equivalent.
//
// The selected lines come from a diff (ChangedLines), so a change is
// mutated where it changed: an edit to one function never changes which
// sites of another run.
package mutation

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A SourceMutant is one source-level mutation site, identified by file
// position and operator so runs are comparable across reports.
type SourceMutant struct {
	File string // module-relative path
	Line int
	Col  int
	Op   string // operator name, e.g. "cond-boundary"
	Desc string // human-readable change, e.g. "< -> <="
}

func (m SourceMutant) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", m.File, m.Line, m.Col, m.Op, m.Desc)
}

// Source mutation operator names.
const (
	OpCondBoundary = "cond-boundary" // < <-> <=, > <-> >=
	OpEqSwap       = "eq-swap"       // == <-> !=
	OpArith        = "arith-swap"    // + <-> -, * -> +, / -> *, etc.
	OpLogic        = "logic-swap"    // && <-> ||, & <-> |
	OpNegateCond   = "negate-cond"   // if cond -> if !(cond)
	OpOffByOne     = "off-by-one"    // int literal in a loop condition +1
	OpDropReturn   = "drop-return"   // remove a bare early return
)

// binarySwaps maps swappable binary operators to their mutation (operator
// name, replacement token).
var binarySwaps = map[token.Token]struct {
	op string
	to token.Token
}{
	token.LSS:  {OpCondBoundary, token.LEQ},
	token.LEQ:  {OpCondBoundary, token.LSS},
	token.GTR:  {OpCondBoundary, token.GEQ},
	token.GEQ:  {OpCondBoundary, token.GTR},
	token.EQL:  {OpEqSwap, token.NEQ},
	token.NEQ:  {OpEqSwap, token.EQL},
	token.ADD:  {OpArith, token.SUB},
	token.SUB:  {OpArith, token.ADD},
	token.MUL:  {OpArith, token.ADD},
	token.QUO:  {OpArith, token.MUL},
	token.REM:  {OpArith, token.QUO},
	token.SHL:  {OpArith, token.SHR},
	token.SHR:  {OpArith, token.SHL},
	token.LAND: {OpLogic, token.LOR},
	token.LOR:  {OpLogic, token.LAND},
	token.AND:  {OpLogic, token.OR},
	token.OR:   {OpLogic, token.AND},
	token.XOR:  {OpLogic, token.AND},
}

// sourceSite is an applicable mutation on a parsed file: apply mutates the
// AST in place and returns an undo closure.
type sourceSite struct {
	mutant SourceMutant
	apply  func() (undo func())
}

// sourceFile is one parsed production file with its enumerated sites.
type sourceFile struct {
	absPath string
	fset    *token.FileSet
	ast     *ast.File
	sites   []sourceSite
}

// parseSourceFile parses path and enumerates every mutation site in
// deterministic position order. rel is the module-relative path used in
// reports.
func parseSourceFile(path, rel string) (*sourceFile, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	sf := &sourceFile{absPath: path, fset: fset, ast: f}

	site := func(pos token.Pos, op, desc string, apply func() func()) {
		p := fset.Position(pos)
		sf.sites = append(sf.sites, sourceSite{
			mutant: SourceMutant{File: rel, Line: p.Line, Col: p.Column, Op: op, Desc: desc},
			apply:  apply,
		})
	}

	// Positions inside a for-loop condition mark off-by-one literal sites.
	var forConds []ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		if fs, ok := n.(*ast.ForStmt); ok && fs.Cond != nil {
			forConds = append(forConds, fs.Cond)
		}
		return true
	})
	inForCond := func(pos token.Pos) bool {
		for _, c := range forConds {
			if c.Pos() <= pos && pos < c.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.BinaryExpr:
			sw, ok := binarySwaps[node.Op]
			if !ok {
				break
			}
			if node.Op == token.ADD && (isStringLit(node.X) || isStringLit(node.Y)) {
				break // string concatenation: "+" has no arithmetic partner
			}
			be := node
			from, to := be.Op, sw.to
			site(be.OpPos, sw.op, fmt.Sprintf("%s -> %s", from, to), func() func() {
				be.Op = to
				return func() { be.Op = from }
			})

		case *ast.IfStmt:
			is := node
			if is.Cond == nil {
				break
			}
			// Skip the degenerate double-negation when the condition is
			// already a unary NOT (eq-swap etc. cover those sites).
			if u, ok := is.Cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
				break
			}
			site(is.Cond.Pos(), OpNegateCond, "cond -> !(cond)", func() func() {
				orig := is.Cond
				is.Cond = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: orig}}
				return func() { is.Cond = orig }
			})

		case *ast.BasicLit:
			lit := node
			if lit.Kind != token.INT || !inForCond(lit.Pos()) {
				break
			}
			v, err := strconv.ParseInt(lit.Value, 0, 64)
			if err != nil {
				break
			}
			next := strconv.FormatInt(v+1, 10)
			site(lit.Pos(), OpOffByOne, fmt.Sprintf("%s -> %s", lit.Value, next), func() func() {
				orig := lit.Value
				lit.Value = next
				return func() { lit.Value = orig }
			})

		case *ast.FuncDecl:
			if node.Body == nil {
				break
			}
			// Bare early returns: `return` with no results anywhere but as
			// the function body's final statement always compiles when
			// removed (the function has no result list to satisfy —
			// otherwise the bare return would not parse type-correctly
			// with named results either, which the build step filters).
			collectBareReturns(node.Body, node.Body, site)
		}
		return true
	})

	sort.SliceStable(sf.sites, func(i, j int) bool {
		a, b := sf.sites[i].mutant, sf.sites[j].mutant
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Op < b.Op
	})
	return sf, nil
}

// collectBareReturns registers drop-return sites for every bare `return`
// inside body, except the final statement of the outermost function block.
func collectBareReturns(body, outer *ast.BlockStmt, site func(token.Pos, string, string, func() func())) {
	var walkBlock func(b *ast.BlockStmt)
	walkBlock = func(b *ast.BlockStmt) {
		for i, st := range b.List {
			if ret, ok := st.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
				if b == outer && i == len(b.List)-1 {
					continue // trailing return: removal is a no-op
				}
				blk, idx := b, i
				site(ret.Pos(), OpDropReturn, "remove early return", func() func() {
					orig := make([]ast.Stmt, len(blk.List))
					copy(orig, blk.List)
					blk.List = append(blk.List[:idx:idx], blk.List[idx+1:]...)
					return func() { blk.List = orig }
				})
			}
		}
		// Recurse into nested blocks.
		for _, st := range b.List {
			ast.Inspect(st, func(n ast.Node) bool {
				if nb, ok := n.(*ast.BlockStmt); ok {
					walkBlock(nb)
					return false
				}
				return true
			})
		}
	}
	walkBlock(body)
}

func isStringLit(e ast.Expr) bool {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// render prints the (possibly mutated) AST back to source bytes.
func (sf *sourceFile) render() ([]byte, error) {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&buf, sf.fset, sf.ast); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// packageSites parses every production .go file of the package directory
// pkgDir (relative to modRoot) and returns the files plus the sites on the
// selected lines, in deterministic (file, position) order.
func packageSites(modRoot, pkgDir string, lines Lines) ([]*sourceFile, []siteRef, error) {
	paths, err := filepath.Glob(filepath.Join(modRoot, pkgDir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	var files []*sourceFile
	var refs []siteRef
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			rel = p
		}
		sf, err := parseSourceFile(p, filepath.ToSlash(rel))
		if err != nil {
			return nil, nil, fmt.Errorf("mutation: parse %s: %w", p, err)
		}
		fi := len(files)
		files = append(files, sf)
		for si, site := range sf.sites {
			if lines.has(site.mutant.File, site.mutant.Line) {
				refs = append(refs, siteRef{file: fi, site: si})
			}
		}
	}
	return files, refs, nil
}

// siteRef addresses one site within a file list.
type siteRef struct{ file, site int }

// ListSites enumerates the mutation sites on the selected lines of the
// package directory pkgDir (relative to modRoot) in deterministic (file,
// position) order: the mutants RunSource would run there.
func ListSites(modRoot, pkgDir string, lines Lines) ([]SourceMutant, error) {
	files, refs, err := packageSites(modRoot, pkgDir, lines)
	if err != nil {
		return nil, err
	}
	out := make([]SourceMutant, len(refs))
	for i, r := range refs {
		out[i] = files[r.file].sites[r.site].mutant
	}
	return out, nil
}

// mutateToFile applies site s of sf, writes the mutated source to dst, and
// restores the AST.
func mutateToFile(sf *sourceFile, s int, dst string) error {
	undo := sf.sites[s].apply()
	defer undo()
	src, err := sf.render()
	if err != nil {
		return err
	}
	return os.WriteFile(dst, src, 0o644)
}
