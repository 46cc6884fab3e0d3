package system

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/linalg"
)

// singleLoopPair builds the pair for:
//
//	for i = lo to hi { a[subA] = a[subB] }
func singleLoopPair(lo, hi int64, subA, subB ir.Expr) ir.Pair {
	nest := &ir.Nest{
		Label: "test",
		Loops: []ir.Loop{{Index: "i", Lower: ir.NewConst(lo), Upper: ir.NewConst(hi)}},
	}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{subA}, Kind: ir.Write, Depth: 1}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{subB}, Kind: ir.Read, Depth: 1}
	nest.Refs = []ir.Ref{a, b}
	return nest.Pair(a, b)
}

// doubleLoopPair builds a 2-deep nest with two 2-D references.
func doubleLoopPair(subA, subB []ir.Expr) ir.Pair {
	nest := &ir.Nest{
		Label: "test2",
		Loops: []ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
			{Index: "j", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
		},
	}
	a := ir.Ref{Array: "a", Subscripts: subA, Kind: ir.Write, Depth: 2}
	b := ir.Ref{Array: "a", Subscripts: subB, Kind: ir.Read, Depth: 2}
	nest.Refs = []ir.Ref{a, b}
	return nest.Pair(a, b)
}

func TestBuildSimple(t *testing.T) {
	// paper §3.1: for i = 1 to 10 { a[i+10] = a[i] }: find i, i' with
	// i + 10 = i', 1 ≤ i,i' ≤ 10.
	p, err := Build(singleLoopPair(1, 10, ir.NewVar("i").AddConst(10), ir.NewVar("i")))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vars) != 2 || p.Vars[0].String() != "i" || p.Vars[1].String() != "i'" || p.NumA != 1 || p.NumB != 1 {
		t.Fatalf("vars = %v (NumA %d, NumB %d)", p.Vars, p.NumA, p.NumB)
	}
	// equation: 1·i - 1·i' = -10  (subA - subB': (i+10) - i' )
	if p.Eq.At(0, 0) != 1 || p.Eq.At(1, 0) != -1 || p.RHS[0] != -10 {
		t.Fatalf("equation wrong: %v rhs %v", p.Eq, p.RHS)
	}
	for i := range p.Vars {
		if !p.Lower[i].Has || !p.Upper[i].Has {
			t.Fatalf("var %d missing bounds", i)
		}
	}
	if p.Common != 1 {
		t.Fatalf("Common = %d", p.Common)
	}
}

func TestBuildErrors(t *testing.T) {
	pair := singleLoopPair(1, 10, ir.NewVar("i"), ir.NewVar("i"))
	pair.B.Ref.Array = "b"
	if _, err := Build(pair); err == nil {
		t.Fatal("different arrays must error")
	}
	pair = singleLoopPair(1, 10, ir.NewVar("i"), ir.NewVar("i"))
	pair.B.Ref.Subscripts = append(pair.B.Ref.Subscripts, ir.NewConst(0))
	if _, err := Build(pair); err == nil {
		t.Fatal("mismatched dimensionality must error")
	}
	pair = singleLoopPair(1, 10, ir.NewVar("k"), ir.NewVar("i"))
	if _, err := Build(pair); err == nil {
		t.Fatal("unknown subscript variable must error")
	}
}

func TestPreprocessGCDIndependent(t *testing.T) {
	// a[2i] = a[2i+1]: gcd 2 does not divide 1 → independent by GCD alone.
	p, err := Build(singleLoopPair(1, 10, ir.NewTerm("i", 2), ir.NewTerm("i", 2).AddConst(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if res != GCDIndependent || ts != nil {
		t.Fatalf("res = %v, ts = %v", res, ts)
	}
}

func TestPreprocessPaperExample(t *testing.T) {
	// Paper §3.1: for i = 1 to 10 { a[i+10] = a[i] } transforms to
	// ∃ t: 1 ≤ t ≤ 10 and 1 ≤ t+10 ≤ 10 (one free variable). The resulting
	// t-system must have 1 variable and 4 single-variable constraints whose
	// integer hull is empty.
	p, err := Build(singleLoopPair(1, 10, ir.NewVar("i").AddConst(10), ir.NewVar("i")))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if res != GCDDependent {
		t.Fatal("equality system is integer-solvable; GCD must not reject")
	}
	if ts.NumT != 1 {
		t.Fatalf("NumT = %d, want 1 (one equation eliminates one var)", ts.NumT)
	}
	if len(ts.Cons) != 4 {
		t.Fatalf("constraints = %d, want 4 (two per loop var)", len(ts.Cons))
	}
	for _, c := range ts.Cons {
		if c.NumVarsUsed() != 1 {
			t.Fatalf("constraint %v uses %d vars, want 1", c, c.NumVarsUsed())
		}
	}
	// The parameterization must satisfy the equation: i(t) + 10 = i'(t).
	if d, ok := ts.Distance(0); !ok || d != 10 {
		t.Fatalf("i' - i = %d (constant %v), want constant 10\n%s", d, ok, ts)
	}
}

func TestPreprocessDistance(t *testing.T) {
	// a[i] = a[i-3]: distance should be the constant i' - i = ... with
	// i = i'-3, distance iB - iA = -3... direction depends on ordering:
	// write a[i], read a[i-3]: i = i' - 3 → i' = i + 3, distance +3.
	p, err := Build(singleLoopPair(0, 10, ir.NewVar("i"), ir.NewVar("i").AddConst(-3)))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := Preprocess(p)
	if err != nil || res != GCDDependent {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if d, ok := ts.Distance(0); !ok || d != 3 {
		t.Fatalf("distance = %d (constant %v), want constant 3", d, ok)
	}
}

func TestCoupledSubscripts(t *testing.T) {
	// Paper §3.2 worked example: a[i1][i2] = a[i2+10][i1+9] over 1..10 ×
	// 1..10. After GCD, SVPC-style constraints must show lb(t1) > ub(t1).
	p, err := Build(doubleLoopPair(
		[]ir.Expr{ir.NewVar("i"), ir.NewVar("j")},
		[]ir.Expr{ir.NewVar("j").AddConst(10), ir.NewVar("i").AddConst(9)},
	))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if res != GCDDependent {
		t.Fatal("GCD alone cannot reject the coupled example")
	}
	// 4 vars, 2 equations → 2 free variables, 8 bound constraints, all
	// single-variable (this is what makes SVPC applicable).
	if ts.NumT != 2 {
		t.Fatalf("NumT = %d, want 2", ts.NumT)
	}
	if len(ts.Cons) != 8 {
		t.Fatalf("constraints = %d, want 8", len(ts.Cons))
	}
	for _, c := range ts.Cons {
		if c.NumVarsUsed() != 1 {
			t.Fatalf("constraint %v not single-variable", c)
		}
	}
}

func TestTriangularBounds(t *testing.T) {
	// for i = 1 to 10, for j = i to 10 { a[j] = a[j-1] }: the inner bound
	// references the outer index, producing multi-variable constraints.
	nest := &ir.Nest{
		Label: "tri",
		Loops: []ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
			{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(10)},
		},
	}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("j")}, Kind: ir.Write, Depth: 2}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("j").AddConst(-1)}, Kind: ir.Read, Depth: 2}
	nest.Refs = []ir.Ref{a, b}
	p, err := Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := Preprocess(p)
	if err != nil || res != GCDDependent {
		t.Fatalf("res=%v err=%v", res, err)
	}
	multi := 0
	for _, c := range ts.Cons {
		if c.NumVarsUsed() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("triangular bounds must produce multi-variable constraints")
	}
}

func TestSymbolicVariable(t *testing.T) {
	// paper §8: read(n); for i = 1 to 10 { a[i+n] = a[i+2n+1] }.
	nest := &ir.Nest{
		Label:   "sym",
		Symbols: []string{"n"},
		Loops:   []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}},
	}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").Add(ir.NewVar("n"))}, Kind: ir.Write, Depth: 1}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").Add(ir.NewTerm("n", 2)).AddConst(1)}, Kind: ir.Read, Depth: 1}
	nest.Refs = []ir.Ref{a, b}
	p, err := Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vars) != 3 {
		t.Fatalf("vars = %v, want i, i', n", p.Vars)
	}
	if p.Vars[2].Kind != Symbol {
		t.Fatal("n must be a Symbol variable")
	}
	if p.Lower[2].Has || p.Upper[2].Has {
		t.Fatal("symbols carry no bounds")
	}
	res, ts, err := Preprocess(p)
	if err != nil || res != GCDDependent {
		t.Fatalf("res=%v err=%v", res, err)
	}
	// i + n = i' + 2n + 1 → i - i' - n = 1: one equation, three vars, two
	// free t. Bounds only constrain i and i'.
	if ts.NumT != 2 {
		t.Fatalf("NumT = %d", ts.NumT)
	}
}

func TestAddDirection(t *testing.T) {
	p, err := Build(singleLoopPair(1, 10, ir.NewVar("i").AddConst(1), ir.NewVar("i")))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	// For a[i+1] vs a[i] the distance is the constant 1, so '<' (i < i') is
	// vacuously true: the added constraint normalizes away and the system
	// must stay feasible and unchanged.
	lt := ts.Clone()
	if err := lt.AddDirection(0, '<'); err != nil {
		t.Fatal(err)
	}
	if lt.Infeasible || len(lt.Cons) != len(ts.Cons) {
		t.Fatalf("'<' on constant distance 1: infeasible=%v cons=%d", lt.Infeasible, len(lt.Cons))
	}
	eq := ts.Clone()
	if err := eq.AddDirection(0, '='); err != nil {
		t.Fatal(err)
	}
	// For a[i+1] vs a[i], i' = i+1 so i=i' is the constant inequality
	// 1 ≤ 0: the system must become infeasible immediately.
	if !eq.Infeasible {
		t.Fatal("'=' direction on distance-1 dependence must be infeasible")
	}
	if err := ts.Clone().AddDirection(0, '?'); err == nil {
		t.Fatal("unknown direction must error")
	}
	if err := ts.Clone().AddDirection(5, '<'); err == nil {
		t.Fatal("bad level must error")
	}
}

// TestDirectionOverflow checks the t-space differences behind a constant
// distance and a direction constraint at the int64 limits, on the system
// of a[i] vs a[i-3] with iA's constant moved to MinInt64: iB - iA is then
// 2^63, which does not fit. Distance used to report it as the wrapped
// MinInt64, and '=' and '>' pushed wrapped constants; '<' needs
// -1 - MinInt64 = MaxInt64, which fits.
func TestDirectionOverflow(t *testing.T) {
	p, err := Build(singleLoopPair(0, 10, ir.NewVar("i"), ir.NewVar("i").AddConst(-3)))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	ai, bi := p.CommonPair(0)
	ts.XOf[ai].Const, ts.XOf[bi].Const = math.MinInt64, 0
	if d, ok := ts.Distance(0); ok {
		t.Fatalf("Distance = %d, want no constant distance (2^63 overflows)", d)
	}
	for _, dir := range []byte("=>") {
		if err := ts.Clone().AddDirection(0, dir); !errors.Is(err, linalg.ErrOverflow) {
			t.Errorf("AddDirection %q = %v, want ErrOverflow", dir, err)
		}
	}
	if err := ts.Clone().AddDirection(0, '<'); err != nil {
		t.Errorf("AddDirection '<' = %v, want nil", err)
	}
	// sign·(iA - iB) for '>' negates the coefficient difference, MinInt64.
	ts.XOf[ai].Const = 0
	ts.XOf[ai].Coef = []int64{math.MinInt64}
	ts.XOf[bi].Coef = []int64{0}
	if err := ts.Clone().AddDirection(0, '>'); !errors.Is(err, linalg.ErrOverflow) {
		t.Errorf("AddDirection '>' over a MinInt64 coefficient = %v, want ErrOverflow", err)
	}
}

// TestBoundOverflow: for i = MinInt64 to 10 the lower bound of i' in t
// space is -t ≤ 2^63, which does not fit. addBound used to negate the
// wrapped constant and push -t ≤ MinInt64 without an error; the Extended
// GCD step must report the overflow instead.
func TestBoundOverflow(t *testing.T) {
	p, err := Build(singleLoopPair(math.MinInt64, 10, ir.NewVar("i"), ir.NewVar("i").AddConst(-3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ts, err := Preprocess(p); !errors.Is(err, linalg.ErrOverflow) {
		t.Fatalf("Preprocess = %v, %v; want ErrOverflow", ts, err)
	}
}

func TestAddDirectionFreeDistance(t *testing.T) {
	// a[5] vs a[5]: the iteration variables are unconstrained by the
	// subscripts, so a direction constraint must materialize.
	p, err := Build(singleLoopPair(1, 10, ir.NewConst(5), ir.NewConst(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	lt := ts.Clone()
	if err := lt.AddDirection(0, '<'); err != nil {
		t.Fatal(err)
	}
	if len(lt.Cons) != len(ts.Cons)+1 {
		t.Fatalf("'<' with free distance must add one constraint: %d → %d", len(ts.Cons), len(lt.Cons))
	}
	gt := ts.Clone()
	if err := gt.AddDirection(0, '>'); err != nil {
		t.Fatal(err)
	}
	if len(gt.Cons) != len(ts.Cons)+1 {
		t.Fatalf("'>' with free distance must add one constraint: %d → %d", len(ts.Cons), len(gt.Cons))
	}
	eq := ts.Clone()
	if err := eq.AddDirection(0, '='); err != nil {
		t.Fatal(err)
	}
	if eq.Infeasible {
		t.Fatal("'=' with free distance must stay feasible")
	}
	if _, ok := ts.Distance(0); ok {
		t.Fatal("distance must be non-constant for a[5] vs a[5]")
	}
}

func TestLevelUsed(t *testing.T) {
	// for i, for j { a[i] = a[i+1] }: j is unused.
	nest := &ir.Nest{
		Label: "unused",
		Loops: []ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
			{Index: "j", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
		},
	}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i")}, Kind: ir.Write, Depth: 2}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").AddConst(1)}, Kind: ir.Read, Depth: 2}
	nest.Refs = []ir.Ref{a, b}
	p, err := Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.LevelUsed(0) {
		t.Fatal("level 0 (i) is used")
	}
	if ts.LevelUsed(1) {
		t.Fatal("level 1 (j) is unused")
	}
}

func TestConstraintNormalize(t *testing.T) {
	c := Constraint{Coef: []int64{2, 4}, C: 7}
	n, ok, err := c.Normalize()
	if err != nil || !ok || n.Coef[0] != 1 || n.Coef[1] != 2 || n.C != 3 {
		t.Fatalf("Normalize = %v ok=%v err=%v, want [1 2] ≤ 3", n, ok, err)
	}
	if c.Coef[0] != 2 {
		t.Fatal("Normalize wrote into the caller's row")
	}
	// constant constraints
	if _, ok, err := (Constraint{Coef: []int64{0}, C: -1}).Normalize(); ok || err != nil {
		t.Fatal("0 ≤ -1 must be infeasible")
	}
	if _, ok, err := (Constraint{Coef: []int64{0}, C: 0}).Normalize(); !ok || err != nil {
		t.Fatal("0 ≤ 0 is feasible")
	}
	// a gcd of 2^63 does not fit
	if _, _, err := (Constraint{Coef: []int64{math.MinInt64, 0}, C: 0}).Normalize(); !errors.Is(err, linalg.ErrOverflow) {
		t.Fatalf("Normalize of a MinInt64 row = %v, want ErrOverflow", err)
	}
}

func TestProblemString(t *testing.T) {
	p, err := Build(singleLoopPair(1, 10, ir.NewVar("i").AddConst(10), ir.NewVar("i")))
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"vars: i i'", "= -10", "1 ≤ i ≤ 10"} {
		if !strings.Contains(s, want) {
			t.Errorf("Problem.String missing %q:\n%s", want, s)
		}
	}
	_, ts, err := Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ts.String(), "t-system") {
		t.Error("TSystem.String malformed")
	}
}

// TestParameterizationSoundness: for random problems, every integer choice
// of the free t variables must satisfy the subscript equations through the
// x = t·U parameterization — the core invariant of the Extended GCD
// preprocessing.
func TestParameterizationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		depth := 1 + rng.Intn(2)
		names := []string{"i", "j"}[:depth]
		loops := make([]ir.Loop, depth)
		for d := range loops {
			loops[d] = ir.Loop{Index: names[d],
				Lower: ir.NewConst(int64(rng.Intn(3))),
				Upper: ir.NewConst(int64(5 + rng.Intn(5)))}
		}
		mk := func() []ir.Expr {
			e := ir.NewConst(int64(rng.Intn(7) - 3))
			for _, v := range names {
				e = e.Add(ir.NewTerm(v, int64(rng.Intn(5)-2)))
			}
			return []ir.Expr{e}
		}
		nest := &ir.Nest{Label: "prop", Loops: loops}
		a := ir.Ref{Array: "a", Subscripts: mk(), Kind: ir.Write, Depth: depth}
		b := ir.Ref{Array: "a", Subscripts: mk(), Kind: ir.Read, Depth: depth}
		nest.Refs = []ir.Ref{a, b}
		prob, err := Build(nest.Pair(a, b))
		if err != nil {
			t.Fatal(err)
		}
		res, ts, err := Preprocess(prob)
		if err != nil {
			t.Fatal(err)
		}
		if res == GCDIndependent {
			continue
		}
		// random t assignment
		tval := make([]int64, ts.NumT)
		for k := range tval {
			tval[k] = int64(rng.Intn(11) - 5)
		}
		// evaluate each x variable
		xval := make([]int64, len(prob.Vars))
		for i, xe := range ts.XOf {
			v := xe.Const
			for k, c := range xe.Coef {
				v += c * tval[k]
			}
			xval[i] = v
		}
		// every equation column must hold: Σ Eq[i][d]·x_i = RHS[d]
		for d := 0; d < prob.Eq.Cols; d++ {
			var sum int64
			for i := range prob.Vars {
				sum += prob.Eq.At(i, d) * xval[i]
			}
			if sum != prob.RHS[d] {
				t.Fatalf("iter %d: parameterization violates equation %d: %d != %d\n%s",
					iter, d, sum, prob.RHS[d], prob.String())
			}
		}
	}
}

func TestTExprString(t *testing.T) {
	e := TExpr{Const: -3, Coef: []int64{2, 0, -1}}
	if got := e.String(); got != "2*t1 - t3 - 3" {
		t.Fatalf("TExpr.String = %q", got)
	}
	if got := (TExpr{Coef: []int64{0}}).String(); got != "0" {
		t.Fatalf("zero TExpr = %q", got)
	}
}
