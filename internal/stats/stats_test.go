package stats

import (
	"testing"
	"testing/quick"

	"exactdep/internal/dtest"
)

func TestAddMerges(t *testing.T) {
	a := Counters{Pairs: 10, Constant: 2, GCDIndependent: 1,
		Independent: 4, Dependent: 5, Unknown: 1, Vectors: 7, ImplicitBB: 1,
		FullLookups: 8, FullHits: 3, L1Lookups: 8, L1Hits: 1,
		EqLookups: 5, EqHits: 2, UniqueFull: 4, UniqueEq: 3}
	a.Tests[int(dtest.KindSVPC)] = 3
	a.DirTests[int(dtest.KindAcyclic)] = 2
	a.TestIndependent[int(dtest.KindLoopResidue)] = 1

	b := a // copy
	var sum Counters
	sum.Add(&a)
	sum.Add(&b)
	if sum.Pairs != 20 || sum.Constant != 4 || sum.Vectors != 14 {
		t.Fatalf("Add broken: %+v", sum)
	}
	if sum.TestCount(dtest.KindSVPC) != 6 {
		t.Fatalf("Tests merge: %v", sum.Tests)
	}
	if sum.DirTestCount(dtest.KindAcyclic) != 4 {
		t.Fatalf("DirTests merge: %v", sum.DirTests)
	}
	if sum.TestIndependent[int(dtest.KindLoopResidue)] != 2 {
		t.Fatalf("TestIndependent merge: %v", sum.TestIndependent)
	}
	if sum.FullLookups != 16 || sum.UniqueEq != 6 {
		t.Fatalf("memo counters merge: %+v", sum)
	}
	if sum.L1Lookups != 16 || sum.L1Hits != 2 || sum.EqHits != 4 {
		t.Fatalf("memo counters merge: %+v", sum)
	}
}

func TestTotals(t *testing.T) {
	var c Counters
	c.Tests[int(dtest.KindSVPC)] = 3
	c.Tests[int(dtest.KindFourierMotzkin)] = 2
	c.DirTests[int(dtest.KindAcyclic)] = 4
	if c.TotalTests() != 5 {
		t.Fatalf("TotalTests = %d", c.TotalTests())
	}
	if c.TotalDirTests() != 4 {
		t.Fatalf("TotalDirTests = %d", c.TotalDirTests())
	}
}

// Property: Add is commutative with respect to the totals.
func TestAddCommutative(t *testing.T) {
	prop := func(p1, c1, p2, c2 uint8) bool {
		a := Counters{Pairs: int(p1), Constant: int(c1)}
		b := Counters{Pairs: int(p2), Constant: int(c2)}
		x, y := Counters{}, Counters{}
		x.Add(&a)
		x.Add(&b)
		y.Add(&b)
		y.Add(&a)
		return x == y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
