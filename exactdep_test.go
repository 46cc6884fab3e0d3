package exactdep_test

import (
	"bytes"
	"strings"
	"testing"

	"exactdep"
)

func TestAnalyzeSourceIntroLoops(t *testing.T) {
	// First intro example: a[i] = a[i+10] — fully parallel.
	rep, err := exactdep.AnalyzeSource(`
for i = 1 to 10
  a[i] = a[i+10] + 3
end
`, exactdep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		cross := r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind
		if cross && r.Outcome != exactdep.Independent {
			t.Fatalf("expected independent: %+v", r)
		}
	}

	// Second intro example: a[i+1] = a[i] — serial.
	rep2, err := exactdep.AnalyzeSource(`
for i = 1 to 10
  a[i+1] = a[i] + 3
end
`, exactdep.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rep2.Results {
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind && r.Outcome == exactdep.Dependent {
			found = true
			if len(r.Vectors) != 1 || r.Vectors[0].String() != "(<)" {
				t.Fatalf("vectors = %v", r.Vectors)
			}
			if len(r.Distances) != 1 || r.Distances[0].Value != 1 {
				t.Fatalf("distances = %v", r.Distances)
			}
		}
	}
	if !found {
		t.Fatal("flow dependence not reported")
	}
}

func TestProgrammaticPair(t *testing.T) {
	nest := &exactdep.Nest{
		Label: "api",
		Loops: []exactdep.Loop{{
			Index: "i",
			Lower: exactdep.NewConst(1),
			Upper: exactdep.NewConst(100),
		}},
	}
	w := exactdep.Ref{Array: "a", Subscripts: []exactdep.Expr{exactdep.NewTerm("i", 2)}, Kind: exactdep.Write, Depth: 1}
	r := exactdep.Ref{Array: "a", Subscripts: []exactdep.Expr{exactdep.NewTerm("i", 2).AddConst(1)}, Kind: exactdep.Read, Depth: 1}
	a := exactdep.NewAnalyzer(exactdep.Options{})
	res, err := a.AnalyzePair(nest.Pair(w, r))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != exactdep.Independent || res.DecidedBy != exactdep.ByGCD {
		t.Fatalf("%+v", res)
	}
}

func TestReportStatsSnapshot(t *testing.T) {
	rep, err := exactdep.AnalyzeSource(`
for i = 1 to 10
  a[i] = a[i+1]
  b[3] = b[4]
end
`, exactdep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Pairs != len(rep.Results) {
		t.Fatalf("pairs = %d, results = %d", rep.Stats.Pairs, len(rep.Results))
	}
	if rep.Stats.Constant == 0 {
		t.Fatal("b[3]/b[4] pairs must be classified constant")
	}
}

func TestParseError(t *testing.T) {
	if _, err := exactdep.AnalyzeSource("for i = \nend\n", exactdep.Options{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestDepGraphAndTransformAPI(t *testing.T) {
	rep, err := exactdep.AnalyzeSource(`
for i = 2 to 100
  for j = 1 to 99
    a[i][j] = a[i-1][j+1]
  end
end
`, exactdep.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	g := exactdep.BuildDepGraph(rep.Unit, rep.Results)
	if len(g.Edges) == 0 {
		t.Fatal("expected dependence edges")
	}
	foundFlow := false
	for _, e := range g.Edges {
		if e.Kind == exactdep.FlowDep && e.Carried {
			foundFlow = true
		}
	}
	if !foundFlow {
		t.Fatalf("missing carried flow edge:\n%s", g)
	}
	var vectors []exactdep.DirectionVector
	for _, r := range rep.Results {
		if r.Outcome == exactdep.Dependent {
			for _, v := range r.Vectors {
				vectors = append(vectors, exactdep.NormalizeVector(v))
			}
		}
	}
	legal, err := exactdep.InterchangeLegal(vectors, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if legal {
		t.Fatal("(<, >) interchange must be illegal")
	}
	if !exactdep.ParallelizableLevel(vectors, 1) {
		t.Fatal("inner level must be parallel")
	}
	if exactdep.ReversalLegal(vectors, 0) {
		t.Fatal("outer reversal must be illegal")
	}
}

func TestMemoPersistenceAPI(t *testing.T) {
	opts := exactdep.Options{Memoize: true, ImprovedMemo: true}
	prog, err := exactdep.Parse("for i = 1 to 10\n  a[i] = a[i+1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	u := exactdep.Lower(prog)
	warm := exactdep.NewAnalyzer(opts)
	if _, err := warm.AnalyzeUnit(u); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := exactdep.NewAnalyzer(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.AnalyzeUnit(u); err != nil {
		t.Fatal(err)
	}
	if cold.Stats.TotalTests() != 0 {
		t.Fatalf("persisted table must avoid re-testing, ran %d", cold.Stats.TotalTests())
	}
}

func TestParallelizeAPI(t *testing.T) {
	prog, err := exactdep.Parse(`
for i = 1 to 10
  for j = 1 to 10
    a[i+1][j] = a[i][j]
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	u := exactdep.Lower(prog)
	rep, err := exactdep.Parallelize(u, exactdep.Options{PruneUnused: true, PruneDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	var outer, inner *exactdep.LoopInfo
	for i := range rep.Loops {
		switch rep.Loops[i].Index {
		case "i":
			outer = &rep.Loops[i]
		case "j":
			inner = &rep.Loops[i]
		}
	}
	if outer == nil || outer.Parallel {
		t.Fatalf("outer must be serial: %+v", rep)
	}
	if inner == nil || !inner.Parallel {
		t.Fatalf("inner must be parallel: %+v", rep)
	}
}

func TestFullDistanceVectorAPI(t *testing.T) {
	rep, err := exactdep.AnalyzeSource(`
for i = 2 to 10
  for j = 3 to 10
    a[i][j] = a[i-1][j-2]
  end
end
`, exactdep.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rep.Results {
		if r.Pair.A.Ref.Kind == r.Pair.B.Ref.Kind {
			continue
		}
		d, ok := exactdep.FullDistanceVector(r)
		if !ok {
			t.Fatalf("constant-distance pair must yield a full vector: %+v", r)
		}
		if d.String() != "(1, 2)" {
			t.Fatalf("distance vector = %s", d)
		}
		found = true
	}
	if !found {
		t.Fatal("no flow pair found")
	}
	// an incomplete result yields ok=false
	if _, ok := exactdep.FullDistanceVector(exactdep.Result{}); ok {
		t.Fatal("empty result must not produce a distance vector")
	}
}

func TestPairsHelper(t *testing.T) {
	prog, err := exactdep.Parse("for i = 1 to 10\n  a[i] = a[i-1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	u := exactdep.Lower(prog)
	cands := exactdep.Pairs(u)
	if len(cands) != 2 { // write/read + write self-pair
		t.Fatalf("candidates = %d", len(cands))
	}
}

func TestPairsNoSelfAPI(t *testing.T) {
	prog, err := exactdep.Parse("for i = 1 to 10\n  a[i] = a[i-1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	u := exactdep.Lower(prog)
	if n := len(exactdep.PairsNoSelf(u)); n != 1 {
		t.Fatalf("PairsNoSelf = %d, want 1", n)
	}
	if n := len(exactdep.Pairs(u)); n != 2 {
		t.Fatalf("Pairs = %d, want 2 (incl. self)", n)
	}
}

func TestAnnotateSourceUnitAPI(t *testing.T) {
	prog, err := exactdep.Parse("for i = 1 to 10\n  k = 2*i\n  a[k] = 1\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	u := exactdep.Lower(prog)
	rep, err := exactdep.Parallelize(u, exactdep.Options{PruneUnused: true, PruneDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	out := exactdep.AnnotateSourceUnit(prog, rep, u)
	if !strings.Contains(out, "private(k)") {
		t.Fatalf("missing private clause:\n%s", out)
	}
}

// TestNoCommonLoopOneEmptyVector: a dependent pair whose references share
// no loop (a[i] written in one nest, a[j+1] read in the next) is
// loop-independent, so it reports the empty direction vector exactly once:
// solved fresh and served from the memo, with one worker and with two.
func TestNoCommonLoopOneEmptyVector(t *testing.T) {
	prog, err := exactdep.Parse("for i = 1 to 10\n  a[i] = 0\nend\nfor j = 1 to 10\n  b[j] = a[j+1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	cands := exactdep.Pairs(exactdep.Lower(prog))
	for _, workers := range []int{1, 2} {
		a := exactdep.NewAnalyzer(exactdep.Options{DirectionVectors: true, PruneUnused: true,
			PruneDistance: true, Memoize: true, ImprovedMemo: true})
		for _, run := range []string{"fresh", "memo-hit"} {
			res, err := a.AnalyzeAll(cands, workers)
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for _, r := range res {
				if r.Pair.Common != 0 {
					continue
				}
				found++
				if r.Outcome != exactdep.Dependent {
					t.Fatalf("workers=%d %s: %s vs %s is %v, want dependent", workers, run, r.Pair.A.Ref, r.Pair.B.Ref, r.Outcome)
				}
				want := exactdep.ByTest
				if run == "memo-hit" {
					want = exactdep.ByCache
				}
				if r.DecidedBy != want {
					t.Fatalf("workers=%d %s: decided by %v, want %v", workers, run, r.DecidedBy, want)
				}
				if len(r.Vectors) != 1 || r.Vectors[0].String() != "()" {
					t.Errorf("workers=%d %s: vectors %v, want the empty vector once", workers, run, r.Vectors)
				}
			}
			if found != 1 {
				t.Fatalf("workers=%d %s: %d pairs without a common loop, want 1", workers, run, found)
			}
		}
	}
}
