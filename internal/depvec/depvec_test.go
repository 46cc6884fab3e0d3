package depvec

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/system"
)

func loop(idx string, lo, hi int64) ir.Loop {
	return ir.Loop{Index: idx, Lower: ir.NewConst(lo), Upper: ir.NewConst(hi)}
}

// prep builds and preprocesses a pair in the given loops.
func prep(t *testing.T, loops []ir.Loop, subA, subB []ir.Expr) *system.TSystem {
	t.Helper()
	nest := &ir.Nest{Label: "dv", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: subA, Kind: ir.Write, Depth: len(loops)}
	b := ir.Ref{Array: "a", Subscripts: subB, Kind: ir.Read, Depth: len(loops)}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := system.Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if res == system.GCDIndependent {
		t.Fatal("test expects a GCD-dependent pair")
	}
	return ts
}

func vecStrings(vs []Vector) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

func TestDistanceOneVector(t *testing.T) {
	// paper §6 first example: a[i+1] = a[i]: dependent with '<' only.
	ts := prep(t, []ir.Loop{loop("i", 1, 10)},
		[]ir.Expr{ir.NewVar("i").AddConst(1)}, []ir.Expr{ir.NewVar("i")})
	for _, opts := range []Options{{}, {PruneUnused: true, PruneDistance: true}} {
		sum := ComputeObserved(ts.Clone(), opts, nil)
		if !sum.Dependent || !sum.Exact {
			t.Fatalf("opts %+v: %+v", opts, sum)
		}
		if got := vecStrings(sum.Vectors); len(got) != 1 || got[0] != "(<)" {
			t.Fatalf("opts %+v: vectors = %v, want [(<)]", opts, got)
		}
	}
}

func TestEqualOnlyVector(t *testing.T) {
	// paper §6 second example: a[i] = a[i]+7: dependent with '=' only.
	ts := prep(t, []ir.Loop{loop("i", 1, 10)},
		[]ir.Expr{ir.NewVar("i")}, []ir.Expr{ir.NewVar("i")})
	sum := ComputeObserved(ts, Options{PruneDistance: true}, nil)
	if got := vecStrings(sum.Vectors); len(got) != 1 || got[0] != "(=)" {
		t.Fatalf("vectors = %v, want [(=)]", got)
	}
	if len(sum.Distances) != 1 || sum.Distances[0].Value != 0 {
		t.Fatalf("distances = %v", sum.Distances)
	}
	// Distance pruning must have avoided all refinement tests: base only.
	if sum.TestsRun != 1 {
		t.Fatalf("TestsRun = %d, want 1 (distance-pruned)", sum.TestsRun)
	}
}

func TestDistancePruningSkipsTests(t *testing.T) {
	ts := prep(t, []ir.Loop{loop("i", 1, 10)},
		[]ir.Expr{ir.NewVar("i").AddConst(3)}, []ir.Expr{ir.NewVar("i")})
	pruned := ComputeObserved(ts.Clone(), Options{PruneDistance: true}, nil)
	unpruned := ComputeObserved(ts.Clone(), Options{}, nil)
	if vecStrings(pruned.Vectors)[0] != "(<)" || vecStrings(unpruned.Vectors)[0] != "(<)" {
		t.Fatalf("vectors: pruned %v unpruned %v", pruned.Vectors, unpruned.Vectors)
	}
	if pruned.TestsRun >= unpruned.TestsRun {
		t.Fatalf("pruning must reduce tests: %d vs %d", pruned.TestsRun, unpruned.TestsRun)
	}
	if len(pruned.Distances) != 1 || pruned.Distances[0].Value != 3 {
		t.Fatalf("distances = %v", pruned.Distances)
	}
}

func TestUnusedVariablePruning(t *testing.T) {
	// paper §6: for i, for j { a[i] = a[j+1]?? } — use their exact example:
	// for i=1 to 10, for j=1 to 10 { a[j] = a[j+1] }: i is unused, result
	// should be (*, <areas>) with '*' prepended.
	loops := []ir.Loop{loop("i", 1, 10), loop("j", 1, 10)}
	ts := prep(t, loops, []ir.Expr{ir.NewVar("j")}, []ir.Expr{ir.NewVar("j").AddConst(1)})
	pruned := ComputeObserved(ts.Clone(), Options{PruneUnused: true, PruneDistance: true}, nil)
	if !pruned.Dependent {
		t.Fatal("a[j] vs a[j+1] depends")
	}
	for _, v := range pruned.Vectors {
		if v[0] != Any {
			t.Fatalf("outer direction must stay '*': %v", v)
		}
	}
	// without pruning, the i level is enumerated into <, =, >
	unpruned := ComputeObserved(ts.Clone(), Options{}, nil)
	if len(unpruned.Vectors) != 3*len(pruned.Vectors) {
		t.Fatalf("expected 3x vectors without pruning: %v vs %v",
			vecStrings(unpruned.Vectors), vecStrings(pruned.Vectors))
	}
	if pruned.TestsRun >= unpruned.TestsRun {
		t.Fatalf("pruning must reduce tests: %d vs %d", pruned.TestsRun, unpruned.TestsRun)
	}
}

func TestMultipleVectors(t *testing.T) {
	// paper §6: for i=0 to 10, for j=0 to 10 { a[i][j] = a[2i][j]+7 }:
	// dependent with both (<, =) and (=, =) — the write at iteration
	// (2t, j) conflicts with the read at (t, j), so iA=2t > iB=t for t>0
	// giving '>'... direction is defined by the first reference's
	// iteration vs the second's: write a[i][j] at i=2t vs read a[2i][j] at
	// i=t. Enumerate exactly and compare against brute force.
	loops := []ir.Loop{loop("i", 0, 10), loop("j", 0, 10)}
	ts := prep(t, loops,
		[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")},
		[]ir.Expr{ir.NewTerm("i", 2), ir.NewVar("j")})
	sum := ComputeObserved(ts, Options{}, nil)
	if !sum.Dependent || !sum.Exact {
		t.Fatalf("%+v", sum)
	}
	want := bruteDirections(0, 10, func(iA, jA, iB, jB int64) bool {
		return iA == 2*iB && jA == jB
	})
	if got := vecStrings(sum.Vectors); !equalStrings(got, want) {
		t.Fatalf("vectors = %v, want %v", got, want)
	}
}

// bruteDirections enumerates direction vectors of a 2-deep nest by brute
// force over the iteration box.
func bruteDirections(lo, hi int64, conflict func(iA, jA, iB, jB int64) bool) []string {
	set := map[string]bool{}
	dir := func(a, b int64) byte {
		switch {
		case a < b:
			return '<'
		case a > b:
			return '>'
		default:
			return '='
		}
	}
	for iA := lo; iA <= hi; iA++ {
		for jA := lo; jA <= hi; jA++ {
			for iB := lo; iB <= hi; iB++ {
				for jB := lo; jB <= hi; jB++ {
					if conflict(iA, jA, iB, jB) {
						set[string([]byte{'(', dir(iA, iB), ',', ' ', dir(jA, jB), ')'})] = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverflowKeepsDirections: a direction whose constraint overflows is
// not refuted. With iA's t-space constant moved to MinInt64, every
// direction push of a[i] vs a[i-3] overflows; the walk must keep all three
// directions as an inexact dependence. It used to drop every direction and
// report an exact independence (implicit branch-and-bound over no vectors).
func TestOverflowKeepsDirections(t *testing.T) {
	ts := prep(t, []ir.Loop{loop("i", 0, 10)},
		[]ir.Expr{ir.NewVar("i")}, []ir.Expr{ir.NewVar("i").AddConst(-3)})
	ai, bi := ts.Prob.CommonPair(0)
	ts.XOf[ai].Const, ts.XOf[bi].Const = math.MinInt64, 1
	want := []string{"(<)", "(=)", "(>)"}
	diffOne(t, ts, Options{}, "overflow")
	sum := ComputeObserved(ts.Clone(), Options{}, nil)
	if got := vecStrings(sum.Vectors); !sum.Dependent || sum.Exact || sum.ImplicitBB || !equalStrings(got, want) {
		t.Errorf("dependent=%v exact=%v implicitBB=%v vectors=%v, want an inexact dependence along %v",
			sum.Dependent, sum.Exact, sum.ImplicitBB, got, want)
	}
}

func TestIndependentPairNoVectors(t *testing.T) {
	ts := prep(t, []ir.Loop{loop("i", 1, 10)},
		[]ir.Expr{ir.NewVar("i").AddConst(10)}, []ir.Expr{ir.NewVar("i")})
	sum := ComputeObserved(ts, Options{PruneUnused: true, PruneDistance: true}, nil)
	if sum.Dependent || len(sum.Vectors) != 0 {
		t.Fatalf("%+v", sum)
	}
	if sum.TestsRun != 1 {
		t.Fatalf("independent base must use exactly 1 test, got %d", sum.TestsRun)
	}
}

func TestImplicitBranchAndBound(t *testing.T) {
	// Reproduces the paper's §6 endnote: with explicit branch-and-bound
	// disabled (as in the paper's implementation), a system whose real
	// dependence has fractional distance yields Unknown at the base test,
	// and every direction vector is then refuted — implicit branch-and-
	// bound concludes independent. Built directly in t-space: the region
	// 2t1 - 3t2 = 1, t2 = 0 contains only t1 = 1/2.
	dtest.EnableExplicitBranchAndBound = false
	defer func() { dtest.EnableExplicitBranchAndBound = true }()

	prob := &system.Problem{
		Vars: []system.Variable{
			{Name: "i", Kind: system.IndexA, Level: 0},
			{Name: "i", Kind: system.IndexB, Level: 0},
		},
		NumA:   1,
		NumB:   1,
		Common: 1,
	}
	ts := &system.TSystem{
		NumT: 2,
		XOf: []system.TExpr{
			{Coef: []int64{1, 0}}, // i  = t1
			{Coef: []int64{0, 1}}, // i' = t2
		},
		Cons: []system.Constraint{
			{Coef: []int64{2, -3}, C: 1},  // 2t1 - 3t2 ≤ 1
			{Coef: []int64{-2, 3}, C: -1}, // 2t1 - 3t2 ≥ 1
			{Coef: []int64{0, 1}, C: 0},   // t2 ≤ 0
			{Coef: []int64{0, -1}, C: 0},  // t2 ≥ 0
		},
		Prob: prob,
	}
	base, _ := dtest.Solve(ts.Clone())
	if base.Outcome != dtest.Unknown {
		t.Fatalf("premise: base must be Unknown without explicit B&B, got %v", base)
	}
	// LevelUsed reads the Constrains flags; give the problem a trivial Eq
	// matrix marking both variables used.
	eqProb(prob)
	sum := ComputeObserved(ts, Options{}, nil)
	if sum.Dependent {
		t.Fatalf("implicit B&B must conclude independent: %+v", sum)
	}
	if !sum.ImplicitBB || !sum.Exact {
		t.Fatalf("expected exact ImplicitBB verdict: %+v", sum)
	}
}

// eqProb attaches a 2x1 equation marking both variables used.
func eqProb(p *system.Problem) {
	nest := &ir.Nest{Loops: []ir.Loop{loop("i", 0, 10)}}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewTerm("i", 2)}, Kind: ir.Write, Depth: 1}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewTerm("i", 3).AddConst(1)}, Kind: ir.Read, Depth: 1}
	nest.Refs = []ir.Ref{a, b}
	built, err := system.Build(nest.Pair(a, b))
	if err != nil {
		panic(err)
	}
	p.Eq = built.Eq
	p.RHS = built.RHS
	p.Lower = built.Lower
	p.Upper = built.Upper
	p.Constrains = built.Constrains
}

func TestObserverCounts(t *testing.T) {
	ts := prep(t, []ir.Loop{loop("i", 0, 10)},
		[]ir.Expr{ir.NewVar("i")}, []ir.Expr{ir.NewTerm("i", 2)})
	var observed int
	sum := ComputeObserved(ts, Options{}, func(dtest.Result) { observed++ })
	if observed != sum.TestsRun {
		t.Fatalf("observer saw %d, summary says %d", observed, sum.TestsRun)
	}
	if observed < 2 {
		t.Fatalf("refinement must run multiple tests, got %d", observed)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{Less, Equal, Any, Greater}
	if got := v.String(); got != "(<, =, *, >)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Vector{}).String(); got != "()" {
		t.Fatalf("empty = %q", got)
	}
}

func TestMergeVectors(t *testing.T) {
	mk := func(s string) Vector {
		v := make(Vector, len(s))
		for i := range s {
			v[i] = Direction(s[i])
		}
		return v
	}
	// full triple collapses
	out := Merge([]Vector{mk("<<"), mk("<="), mk("<>")})
	if len(out) != 1 || out[0].String() != "(<, *)" {
		t.Fatalf("Merge = %v", out)
	}
	// cascading: 9 vectors over 2 levels collapse to (*, *)
	var all []Vector
	for _, a := range "<=>" {
		for _, b := range "<=>" {
			all = append(all, mk(string(a)+string(b)))
		}
	}
	out = Merge(all)
	if len(out) != 1 || out[0].String() != "(*, *)" {
		t.Fatalf("Merge(all 9) = %v", out)
	}
	// partial sets stay put
	out = Merge([]Vector{mk("<<"), mk("<=")})
	if len(out) != 2 {
		t.Fatalf("incomplete triple merged: %v", out)
	}
	// duplicates removed
	out = Merge([]Vector{mk("<"), mk("<")})
	if len(out) != 1 {
		t.Fatalf("duplicates survive: %v", out)
	}
	if got := Merge(nil); got != nil {
		t.Fatalf("Merge(nil) = %v", got)
	}
}

// TestRefinerReuse runs one Refiner over random nests of depth 1–4 in every
// pruning variant, as an analyzer worker keeps it, and checks each walk
// against one with a fresh Refiner: the output buffers a deeper walk left
// behind must not leak into a later Summary.
func TestRefinerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shared := NewRefiner()
	for tested := 0; tested < 120; {
		ts := randNest(rng, 1+rng.Intn(4))
		if ts == nil {
			continue
		}
		tested++
		for i, opts := range diffOpts {
			fresh := ComputeObserved(ts, opts, nil)
			opts.Refiner = shared
			if got := ComputeObserved(ts, opts, nil); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("nest %d opts %d: reused Refiner\n got %+v\nwant %+v", tested, i, got, fresh)
			}
		}
	}
}
