package opt_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
	"logicregression/internal/core"
	"logicregression/internal/opt"
	"logicregression/internal/sat"
)

// fraigReference is Fraig as it was before incremental refinement: every
// round re-simulates all patterns, keys each node's whole signature as a
// string and visits the classes in sorted key order. Fraig must give the
// same AIG byte for byte.
func fraigReference(g *aig.AIG, cfg opt.Config) *aig.AIG {
	const simWords, rounds, maxConflicts = 8, 24, 1000
	rng := rand.New(rand.NewSource(cfg.Seed))
	nPI := g.NumPIs()

	patterns := make([][]uint64, 0, simWords+8)
	for w := 0; w < simWords; w++ {
		word := make([]uint64, nPI)
		for i := range word {
			word[i] = rng.Uint64()
		}
		patterns = append(patterns, word)
	}

	solver := sat.New()
	cnf := aig.ToCNF(solver, g)
	subst := g.NewSubstMap()
	refuted := make(map[[2]int]bool)

	for iter := 0; iter < rounds; iter++ {
		sigs := make([][]uint64, g.NumNodes())
		phase := make([]bool, g.NumNodes())
		for w, word := range patterns {
			vals := g.SimWords(word)
			for n := range vals {
				if w == 0 {
					sigs[n] = make([]uint64, len(patterns))
					phase[n] = vals[n]&1 == 1
				}
				v := vals[n]
				if phase[n] {
					v = ^v
				}
				sigs[n][w] = v
			}
		}
		classes := make(map[string][]int)
		for n := 0; n < g.NumNodes(); n++ {
			if n > 0 && !g.IsAnd(n) {
				continue
			}
			classes[sigKey(sigs[n])] = append(classes[sigKey(sigs[n])], n)
		}

		var cex []uint64
		classKeys := make([]string, 0, len(classes))
		for k := range classes {
			classKeys = append(classKeys, k)
		}
		sort.Strings(classKeys)
		for _, k := range classKeys {
			class := classes[k]
			if len(class) < 2 {
				continue
			}
			rep := class[0]
			for _, n := range class[1:] {
				if subst[n] != aig.NoSubst || refuted[[2]int{rep, n}] {
					continue
				}
				compl := phase[rep] != phase[n]
				a := aig.MkLit(rep, false)
				b := aig.MkLit(n, compl)
				switch cnf.ProveEqual(a, b, maxConflicts) {
				case sat.Unsat:
					subst[n] = aig.MkLit(rep, compl)
				case sat.Sat:
					refuted[[2]int{rep, n}] = true
					if cex == nil {
						cex = make([]uint64, nPI)
						for i := 0; i < nPI; i++ {
							cex[i] = rng.Uint64() &^ 1
							if cnf.Model(g.PI(i)) {
								cex[i] |= 1
							}
						}
					}
				default:
					refuted[[2]int{rep, n}] = true
				}
			}
		}
		if cex == nil {
			break
		}
		patterns = append(patterns, cex)
	}
	return g.Rebuild(subst)
}

func sigKey(sig []uint64) string {
	buf := make([]byte, 0, len(sig)*8)
	for _, w := range sig {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

// randomAIG builds nAnd random ANDs, ORs and XORs over nPI inputs. Every
// tenth step adds an XOR in a second structure beside the first, every
// tenth a four-input AND, and the last step adds two parity chains over all
// inputs in opposite orders, so that FRAIG has merges to prove, pairs to
// refute over many rounds and proofs that run into the conflict budget.
func randomAIG(rng *rand.Rand, nPI, nAnd int) *aig.AIG {
	names := make([]string, nPI)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	g := aig.New(names)
	lits := make([]aig.Lit, 0, nPI+nAnd)
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.PI(i))
	}
	pick := func() aig.Lit {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 1 {
			l = l.Not()
		}
		return l
	}
	for g.NumNodes() < 1+nPI+nAnd {
		a, b := pick(), pick()
		switch rng.Intn(10) {
		case 0:
			lits = append(lits, g.Xor(a, b), g.And(g.Or(a, b), g.And(a, b).Not()))
		case 1, 2, 3:
			lits = append(lits, g.Or(a, b))
		case 4, 5:
			lits = append(lits, g.Xor(a, b))
		case 6:
			// Rarely true: simulation keeps it with the constant until
			// SAT finds a pattern that sets it.
			lits = append(lits, g.And(g.And(a, b), g.And(pick(), pick())))
		default:
			lits = append(lits, g.And(a, b))
		}
	}
	fwd, rev := g.PI(0), g.PI(nPI-1)
	for i := 1; i < nPI; i++ {
		fwd = g.Xor(fwd, g.PI(i))
		rev = g.Xor(rev, g.PI(nPI-1-i))
	}
	g.AddPO("fwd", fwd)
	g.AddPO("rev", rev)
	for o := 0; o < 6; o++ {
		g.AddPO(fmt.Sprintf("y%d", o), lits[len(lits)-1-rng.Intn(len(lits)/2)])
	}
	return g
}

func aigerBytes(t *testing.T, g *aig.AIG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aig.WriteAIGER(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkFraigMatches(t *testing.T, g *aig.AIG, seed int64) {
	t.Helper()
	cfg := opt.Config{Seed: seed}
	got, want := opt.Fraig(g, cfg), fraigReference(g, cfg)
	if !bytes.Equal(aigerBytes(t, got), aigerBytes(t, want)) {
		t.Fatalf("seed %d: Fraig gives %d ANDs, the reference %d; the AIGs differ", seed, got.NumAnds(), want.NumAnds())
	}
}

func TestFraigMatchesReference(t *testing.T) {
	for _, size := range []struct{ nPI, nAnd int }{{3, 12}, {5, 60}, {8, 250}, {12, 800}, {16, 2000}} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("random_%d_%d_seed%d", size.nPI, size.nAnd, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + int64(size.nAnd)))
				checkFraigMatches(t, randomAIG(rng, size.nPI, size.nAnd), seed)
			})
		}
	}
	// Pre-opt circuits of a template case, an exhaustive case and a tree
	// case at E1's budget, as step 5 would see them after strash and
	// rewrite.
	for _, name := range []string{"case_8", "case_4", "case_18"} {
		t.Run(name, func(t *testing.T) {
			cs, err := cases.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res := core.Learn(cs.Oracle(), core.Options{Seed: 1, SupportR: 768, MaxTreeNodes: 600, DisableOptimization: true})
			g := opt.Rewrite(aig.FromCircuit(res.Circuit))
			for seed := int64(1); seed <= 3; seed++ {
				checkFraigMatches(t, g, seed)
			}
		})
	}
}
