package depvec

import (
	"testing"

	"exactdep/internal/ir"
)

func TestSeparableDetection(t *testing.T) {
	// a[i][j] vs a[i-1][j-2]: each dimension touches one level → separable.
	sep := prep(t, []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)},
		[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")},
		[]ir.Expr{ir.NewVar("i").AddConst(-1), ir.NewVar("j").AddConst(-2)})
	if !Separable(sep) {
		t.Fatal("independent dimensions must be separable")
	}
	// coupled: a[i+j] vs a[i+j+1]
	coupled := prep(t, []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)},
		[]ir.Expr{ir.NewVar("i").Add(ir.NewVar("j"))},
		[]ir.Expr{ir.NewVar("i").Add(ir.NewVar("j")).AddConst(1)})
	if Separable(coupled) {
		t.Fatal("coupled subscripts must not be separable")
	}
	// triangular bounds couple levels
	tri := prep(t, []ir.Loop{
		loop("i", 1, 10),
		{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(10)},
	},
		[]ir.Expr{ir.NewVar("j")}, []ir.Expr{ir.NewVar("j").AddConst(1)})
	if Separable(tri) {
		t.Fatal("triangular bounds must not be separable")
	}
}

func TestSeparableMatchesHierarchical(t *testing.T) {
	// Compare the two methods on a 2-D separable case with a genuinely
	// multi-direction level: a[2i][j] vs a[i][j] and variants.
	cases := []struct{ subsA, subsB []ir.Expr }{
		{
			[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")},
			[]ir.Expr{ir.NewTerm("i", 2), ir.NewVar("j")},
		},
		{
			[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")},
			[]ir.Expr{ir.NewVar("i").AddConst(-1), ir.NewTerm("j", 2)},
		},
		{
			[]ir.Expr{ir.NewConst(5), ir.NewVar("j")},
			[]ir.Expr{ir.NewConst(5), ir.NewVar("j").AddConst(1)},
		},
	}
	for ci, c := range cases {
		ts := prep(t, []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)}, c.subsA, c.subsB)
		if !Separable(ts) {
			t.Fatalf("case %d must be separable", ci)
		}
		hier := ComputeObserved(ts.Clone(), Options{}, nil)
		sep := ComputeObserved(ts.Clone(), Options{Separable: true}, nil)
		if hier.Dependent != sep.Dependent || hier.Exact != sep.Exact {
			t.Fatalf("case %d: verdicts differ: %+v vs %+v", ci, hier, sep)
		}
		hs, ss := vecStrings(hier.Vectors), vecStrings(sep.Vectors)
		if !equalStrings(hs, ss) {
			t.Fatalf("case %d: vectors differ: %v vs %v", ci, hs, ss)
		}
		if sep.TestsRun > hier.TestsRun {
			t.Fatalf("case %d: separable method ran more tests (%d vs %d)",
				ci, sep.TestsRun, hier.TestsRun)
		}
	}
}

func TestSeparableSavesTests(t *testing.T) {
	// 3 levels, each with all three directions feasible: hierarchical costs
	// 3 + 9 + 27 tests on the surviving paths; separable costs 9.
	ts := prep(t,
		[]ir.Loop{loop("i", 0, 10), loop("j", 0, 10), loop("k", 0, 10)},
		[]ir.Expr{ir.NewTerm("i", 2), ir.NewTerm("j", 2), ir.NewTerm("k", 2)},
		[]ir.Expr{ir.NewVar("i"), ir.NewVar("j"), ir.NewVar("k")})
	hier := ComputeObserved(ts.Clone(), Options{}, nil)
	sep := ComputeObserved(ts.Clone(), Options{Separable: true}, nil)
	if !equalStrings(vecStrings(hier.Vectors), vecStrings(sep.Vectors)) {
		t.Fatalf("vector sets differ:\n%v\n%v", vecStrings(hier.Vectors), vecStrings(sep.Vectors))
	}
	if sep.TestsRun >= hier.TestsRun {
		t.Fatalf("separable must be cheaper: %d vs %d tests", sep.TestsRun, hier.TestsRun)
	}
	if sep.TestsRun != 1+9 {
		t.Fatalf("separable tests = %d, want 10 (base + 3 per level)", sep.TestsRun)
	}
}

func TestSeparableFallsBack(t *testing.T) {
	// Coupled case with Separable requested: must silently use the
	// hierarchical method and stay correct.
	ts := prep(t, []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)},
		[]ir.Expr{ir.NewVar("i").Add(ir.NewVar("j"))},
		[]ir.Expr{ir.NewVar("i").Add(ir.NewVar("j")).AddConst(1)})
	plain := ComputeObserved(ts.Clone(), Options{}, nil)
	sep := ComputeObserved(ts.Clone(), Options{Separable: true}, nil)
	if !equalStrings(vecStrings(plain.Vectors), vecStrings(sep.Vectors)) {
		t.Fatalf("fallback changed vectors: %v vs %v",
			vecStrings(plain.Vectors), vecStrings(sep.Vectors))
	}
}

func TestSeparableWithPruning(t *testing.T) {
	// Constant distances prune entirely, so the separable method shouldn't
	// even test those levels.
	ts := prep(t, []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)},
		[]ir.Expr{ir.NewVar("i").AddConst(1), ir.NewVar("j")},
		[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")})
	sum := ComputeObserved(ts, Options{Separable: true, PruneDistance: true, PruneUnused: true}, nil)
	if !sum.Dependent || len(sum.Vectors) != 1 || sum.Vectors[0].String() != "(<, =)" {
		t.Fatalf("%+v", sum)
	}
	if sum.TestsRun != 1 {
		t.Fatalf("fully pruned separable case must only run the base test, got %d", sum.TestsRun)
	}
}
