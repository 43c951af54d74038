package flow

import (
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestDifferentialSoundness is the property test for constant propagation:
// it parses consts_fixtures_test.go from disk, runs SolveConsts over every
// fixture*, then executes the compiled versions of the same functions on
// randomized and adversarial inputs and checks that every proven constant
// equals the runtime value. Proving nothing would pass trivially, so the
// test also requires a minimum number of proven constants across the
// corpus.

// retSite is one `return []int{sentinel, ...}` statement of a fixture.
type retSite struct {
	block *Block
	ret   *ast.ReturnStmt
	elems []ast.Expr
}

// analyzedFixture pairs the static results for one fixture function with
// its return sites, keyed by sentinel.
type analyzedFixture struct {
	name   string
	consts *Consts
	sites  map[int64]*retSite
}

func loadFixtures(t *testing.T) []*analyzedFixture {
	t.Helper()
	path := filepath.Join(".", "consts_fixtures_test.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture source: %v", err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatalf("parsing fixture source: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("constfixtures", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typechecking fixture source: %v", err)
	}

	var out []*analyzedFixture
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || len(fd.Name.Name) < 7 || fd.Name.Name[:7] != "fixture" {
			continue
		}
		af := &analyzedFixture{
			name:   fd.Name.Name,
			consts: SolveConsts(fd, info),
			sites:  make(map[int64]*retSite),
		}
		for _, b := range af.consts.CFG.Blocks {
			for _, n := range b.Nodes {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					continue
				}
				if len(ret.Results) != 1 {
					t.Fatalf("%s: fixture returns must have one result", af.name)
				}
				lit, ok := ret.Results[0].(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					t.Fatalf("%s: fixture returns must be []int composite literals", af.name)
				}
				tv := info.Types[lit.Elts[0]]
				if tv.Value == nil {
					t.Fatalf("%s: first return element must be a literal sentinel", af.name)
				}
				sentinel, exact := constant.Int64Val(constant.ToInt(tv.Value))
				if !exact {
					t.Fatalf("%s: sentinel does not fit int64", af.name)
				}
				if _, dup := af.sites[sentinel]; dup {
					t.Fatalf("%s: duplicate sentinel %d", af.name, sentinel)
				}
				af.sites[sentinel] = &retSite{block: b, ret: ret, elems: lit.Elts}
			}
		}
		if len(af.sites) == 0 {
			t.Fatalf("%s: no return sites found", af.name)
		}
		out = append(out, af)
	}
	if len(out) != len(fixtureRegistry) {
		t.Fatalf("parsed %d fixtures, registry has %d", len(out), len(fixtureRegistry))
	}
	return out
}

func fixtureInputs() [][2]int {
	edges := []int{-1024, -128, -100, -64, -63, -8, -1, 0, 1, 2, 7, 10, 11, 62, 63, 64, 127, 128, 1023}
	var in [][2]int
	for _, a := range edges {
		for _, b := range edges {
			in = append(in, [2]int{a, b})
		}
	}
	rng := rand.New(rand.NewSource(42)) // deterministic corpus
	for i := 0; i < 250; i++ {
		in = append(in, [2]int{rng.Intn(10001) - 5000, rng.Intn(10001) - 5000})
	}
	return in
}

func TestDifferentialSoundness(t *testing.T) {
	fixtures := loadFixtures(t)
	inputs := fixtureInputs()

	provenConsts := 0
	checkedSites := make(map[string]map[int64]bool)

	for _, af := range fixtures {
		fn, ok := fixtureRegistry[af.name]
		if !ok {
			t.Fatalf("%s: not in fixtureRegistry", af.name)
		}
		checkedSites[af.name] = make(map[int64]bool)
		for _, in := range inputs {
			got := fn(in[0], in[1])
			site, ok := af.sites[int64(got[0])]
			if !ok {
				t.Fatalf("%s(%d, %d): runtime sentinel %d has no return site",
					af.name, in[0], in[1], got[0])
			}
			if len(got) != len(site.elems) {
				t.Fatalf("%s: runtime result has %d elements, return site has %d",
					af.name, len(got), len(site.elems))
			}
			firstVisit := !checkedSites[af.name][int64(got[0])]
			checkedSites[af.name][int64(got[0])] = true
			for i, e := range site.elems {
				rt := int64(got[i])
				if cv, ok := af.consts.constAt(site.block, site.ret, e); ok {
					want, exact := constant.Int64Val(constant.ToInt(cv))
					if !exact {
						t.Fatalf("%s: proven constant does not fit int64", af.name)
					}
					if want != rt {
						t.Errorf("%s(%d, %d) elem %d: proved constant %d, runtime says %d",
							af.name, in[0], in[1], i, want, rt)
					}
					if firstVisit {
						provenConsts++
					}
				}
			}
		}
		// Every return site must actually be exercised by some input, or
		// the static claims for it were never compared against reality.
		for sentinel := range af.sites {
			if !checkedSites[af.name][sentinel] {
				t.Errorf("%s: return site with sentinel %d never executed", af.name, sentinel)
			}
		}
	}

	// Anti-vacuity: the corpus is designed so the analysis proves a healthy
	// number of constants. If this drops, precision regressed even though
	// soundness still holds.
	t.Logf("corpus: %d fixtures, %d inputs, %d proven constants",
		len(fixtures), len(inputs), provenConsts)
	if provenConsts < 15 {
		t.Errorf("only %d constants proven across the corpus, want >= 15", provenConsts)
	}
}
