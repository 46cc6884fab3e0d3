package linalg

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {-12, 18, 6},
		{12, -18, 6}, {-12, -18, 6}, {7, 13, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDAll(t *testing.T) {
	if got := GCDAll([]int64{12, 18, 30}); got != 6 {
		t.Errorf("GCDAll = %d", got)
	}
	if got := GCDAll(nil); got != 0 {
		t.Errorf("GCDAll(nil) = %d", got)
	}
	if got := GCDAll([]int64{0, 0, 4}); got != 4 {
		t.Errorf("GCDAll zeros = %d", got)
	}
}

func TestExtGCDBezout(t *testing.T) {
	prop := func(a, b int16) bool {
		g, x, y := ExtGCD(int64(a), int64(b))
		return g == GCD(int64(a), int64(b)) && int64(a)*x+int64(b)*y == g
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {7, -2, -4, -3}, {-7, -2, 3, 4},
		{6, 3, 2, 2}, {-6, 3, -2, -2}, {0, 5, 0, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.fl {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := CeilDiv(c.a, c.b); got != c.ce {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestCheckedArith(t *testing.T) {
	if _, err := AddChecked(math.MaxInt64, 1); err == nil {
		t.Error("AddChecked must detect positive overflow")
	}
	if _, err := AddChecked(math.MinInt64, -1); err == nil {
		t.Error("AddChecked must detect negative overflow")
	}
	if v, err := AddChecked(40, 2); err != nil || v != 42 {
		t.Errorf("AddChecked(40,2) = %d, %v", v, err)
	}
	if _, err := MulChecked(math.MaxInt64, 2); err == nil {
		t.Error("MulChecked must detect overflow")
	}
	if v, err := MulChecked(-6, 7); err != nil || v != -42 {
		t.Errorf("MulChecked(-6,7) = %d, %v", v, err)
	}
	if v, err := MulChecked(0, math.MaxInt64); err != nil || v != 0 {
		t.Errorf("MulChecked(0,max) = %d, %v", v, err)
	}
}

// TestCheckedArithExtremes runs the checked operations over every ordered
// pair of operands around the int64 limits against exact big.Int
// arithmetic: each must return the exact value when it fits and
// ErrOverflow when it does not. MulChecked(MinInt64, -1) and
// AddChecked(x, -MinInt64) used to wrap without an error.
func TestCheckedArithExtremes(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 5, math.MaxInt64 - 1, math.MaxInt64}
	ops := []struct {
		name  string
		f     func(a, b int64) (int64, error)
		exact func(z, x, y *big.Int) *big.Int
	}{
		{"AddChecked", AddChecked, (*big.Int).Add},
		{"SubChecked", SubChecked, (*big.Int).Sub},
		{"MulChecked", MulChecked, (*big.Int).Mul},
	}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				want := op.exact(new(big.Int), big.NewInt(a), big.NewInt(b))
				got, err := op.f(a, b)
				switch {
				case !want.IsInt64():
					if !errors.Is(err, ErrOverflow) {
						t.Errorf("%s(%d, %d) = %d, %v; want ErrOverflow", op.name, a, b, got, err)
					}
				case err != nil || got != want.Int64():
					t.Errorf("%s(%d, %d) = %d, %v; want %s", op.name, a, b, got, err, want)
				}
			}
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]int64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At = %d", m.At(1, 0))
	}
	m.Set(1, 0, 9)
	if m.At(1, 0) != 9 {
		t.Fatal("Set did not stick")
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Fatal("Clone aliases original")
	}
	if got := m.Row(0); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Row = %v", got)
	}
	id := Identity(2)
	prod, err := m.Mul(id)
	if err != nil || !prod.Equal(m) {
		t.Fatalf("m·I = %v, err %v", prod, err)
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]int64{{7, 8}, {9, 10}, {11, 12}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]int64{{58, 64}, {139, 154}})
	if !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
	if _, err := a.Mul(a); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestMatrixRowOps(t *testing.T) {
	m := FromRows([][]int64{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 {
		t.Fatal("SwapRows failed")
	}
	m.NegateRow(0)
	if m.At(0, 0) != -3 || m.At(0, 1) != -4 {
		t.Fatal("NegateRow failed")
	}
	if err := m.AddMulRow(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 || m.At(0, 1) != 2 {
		t.Fatalf("AddMulRow gave %v", m)
	}
}

// determinant via fraction-free Gaussian elimination on small matrices,
// used only to verify unimodularity in tests.
func det(m *Matrix) int64 {
	n := m.Rows
	a := m.Clone()
	sign := int64(1)
	var prevPivot int64 = 1
	for k := 0; k < n-1; k++ {
		if a.At(k, k) == 0 {
			swapped := false
			for r := k + 1; r < n; r++ {
				if a.At(r, k) != 0 {
					a.SwapRows(k, r)
					sign = -sign
					swapped = true
					break
				}
			}
			if !swapped {
				return 0
			}
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				v := (a.At(i, j)*a.At(k, k) - a.At(i, k)*a.At(k, j)) / prevPivot
				a.Set(i, j, v)
			}
			a.Set(i, k, 0)
		}
		prevPivot = a.At(k, k)
	}
	return sign * a.At(n-1, n-1)
}

func TestFactorSimple(t *testing.T) {
	// Paper §3.1 example: single equation i' - i = 10, variables (i, i').
	// A is 2x1: rows are variables, column the equation i*(-1) + i'*(1).
	A := FromRows([][]int64{{-1}, {1}})
	e, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank != 1 {
		t.Fatalf("Rank = %d", e.Rank)
	}
	// U·A must equal D
	ua, err := e.U.Mul(A)
	if err != nil {
		t.Fatal(err)
	}
	if !ua.Equal(e.D) {
		t.Fatalf("U·A ≠ D:\n%v\nvs\n%v", ua, e.D)
	}
	if d := det(e.U); d != 1 && d != -1 {
		t.Fatalf("U not unimodular, det = %d", d)
	}
	// t·D = (10) must have the integer solution t0 = 10/D[0][0]
	sol, ok, err := e.Solve([]int64{10})
	if err != nil || !ok {
		t.Fatalf("Solve: ok=%v err=%v", ok, err)
	}
	if sol[0]*e.D.At(0, 0) != 10 {
		t.Fatalf("solution %v does not satisfy equation", sol)
	}
}

func TestFactorGCDFailure(t *testing.T) {
	// 2i = 2i' + 1 has no integer solution: A rows (2, -2), c = 1.
	A := FromRows([][]int64{{2}, {-2}})
	e, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := e.Solve([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("gcd test must reject 2i - 2i' = 1")
	}
	if _, ok, _ := e.Solve([]int64{4}); !ok {
		t.Fatal("2i - 2i' = 4 is integer solvable")
	}
}

func TestFactorInconsistent(t *testing.T) {
	// x = 1 and x = 2 simultaneously: A is 1x2 (one variable, two equations).
	A := FromRows([][]int64{{1, 1}})
	e, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Solve([]int64{1, 2}); ok {
		t.Fatal("inconsistent system must have no solution")
	}
	if sol, ok, _ := e.Solve([]int64{3, 3}); !ok || sol[0] != 3 {
		t.Fatalf("consistent system: sol=%v ok=%v", sol, ok)
	}
}

func TestFactorZeroMatrix(t *testing.T) {
	A := NewMatrix(3, 2)
	e, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank != 0 {
		t.Fatalf("zero matrix rank = %d", e.Rank)
	}
	if _, ok, _ := e.Solve([]int64{0, 0}); !ok {
		t.Fatal("0 = 0 should be solvable")
	}
	if _, ok, _ := e.Solve([]int64{0, 1}); ok {
		t.Fatal("0 = 1 should be unsolvable")
	}
}

// Property: for random small matrices, Factor yields U·A = D, D echelon
// with positive leading entries, and |det U| = 1.
func TestFactorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(3)
		A := NewMatrix(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				A.Set(i, j, int64(rng.Intn(11)-5))
			}
		}
		e, err := Factor(A)
		if err != nil {
			t.Fatal(err)
		}
		ua, err := e.U.Mul(A)
		if err != nil {
			t.Fatal(err)
		}
		if !ua.Equal(e.D) {
			t.Fatalf("iter %d: U·A ≠ D\nA=\n%v\nU=\n%v\nD=\n%v", iter, A, e.U, e.D)
		}
		if d := det(e.U); d != 1 && d != -1 {
			t.Fatalf("iter %d: det U = %d", iter, d)
		}
		// echelon shape: leading columns strictly increase, positive leads,
		// zero rows at the bottom
		prev := -1
		for r := 0; r < e.Rank; r++ {
			lead := -1
			for c := 0; c < m; c++ {
				if e.D.At(r, c) != 0 {
					lead = c
					break
				}
			}
			if lead == -1 || lead <= prev {
				t.Fatalf("iter %d: bad echelon row %d\nD=\n%v", iter, r, e.D)
			}
			if e.D.At(r, lead) <= 0 {
				t.Fatalf("iter %d: nonpositive leading entry\nD=\n%v", iter, e.D)
			}
			if lead != e.Lead[r] {
				t.Fatalf("iter %d: Lead[%d]=%d, found %d", iter, r, e.Lead[r], lead)
			}
			prev = lead
		}
		for r := e.Rank; r < n; r++ {
			for c := 0; c < m; c++ {
				if e.D.At(r, c) != 0 {
					t.Fatalf("iter %d: nonzero entry below rank\nD=\n%v", iter, e.D)
				}
			}
		}
	}
}

// Property: if Solve reports a solution t, then t·D = c exactly; and if a
// random integer x exists with x·A = c, Solve must succeed (completeness).
func TestSolveSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(3)
		A := NewMatrix(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				A.Set(i, j, int64(rng.Intn(9)-4))
			}
		}
		// construct a c that is solvable by planting x
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(rng.Intn(7) - 3)
		}
		c := make([]int64, m)
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				c[j] += x[i] * A.At(i, j)
			}
		}
		e, err := Factor(A)
		if err != nil {
			t.Fatal(err)
		}
		sol, ok, err := e.Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("iter %d: Solve incomplete: planted x=%v c=%v\nA=\n%v", iter, x, c, A)
		}
		// soundness: determined t must satisfy t·D = c given free rows are 0
		for j := 0; j < m; j++ {
			var got int64
			for i := 0; i < e.Rank; i++ {
				got += sol[i] * e.D.At(i, j)
			}
			if got != c[j] {
				t.Fatalf("iter %d: t·D ≠ c at col %d", iter, j)
			}
		}
	}
}

// TestFactorIntoReuse factors random matrices of changing shape into one
// Echelon and solves into one buffer, as system.Preprocessor does, and
// checks every call against a fresh Factor and Solve.
func TestFactorIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var e Echelon
	var buf []int64
	for iter := 0; iter < 300; iter++ {
		n, m := 1+rng.Intn(5), 1+rng.Intn(3)
		A := NewMatrix(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				A.Set(i, j, int64(rng.Intn(9)-4))
			}
		}
		c := make([]int64, m)
		for j := range c {
			c[j] = int64(rng.Intn(9) - 4)
		}
		want, err := Factor(A)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FactorInto(A); err != nil {
			t.Fatal(err)
		}
		if !e.U.Equal(want.U) || !e.D.Equal(want.D) || e.Rank != want.Rank || !slices.Equal(e.Lead, want.Lead) {
			t.Fatalf("iter %d: FactorInto differs from Factor\nU=\n%v\nwant\n%v\nD=\n%v\nwant\n%v", iter, e.U, want.U, e.D, want.D)
		}
		wsol, wok, werr := want.Solve(c)
		sol, ok, err := e.SolveInto(buf, c)
		if ok != wok || (err == nil) != (werr == nil) || !slices.Equal(sol, wsol) {
			t.Fatalf("iter %d: SolveInto = %v, %v, %v; Solve = %v, %v, %v", iter, sol, ok, err, wsol, wok, werr)
		}
		if cap(sol) > cap(buf) {
			buf = sol
		}
	}
}

// TestSolveResidualOverflow drives a residual to c - t·D = 5 - MinInt64,
// which does not fit int64: one variable equal to both MinInt64 and 5.
// AddChecked(5, -MinInt64) wrapped to 5 + MinInt64 without an error, so
// the solve reported an ordinary inconsistent equation; it must report
// the overflow instead.
func TestSolveResidualOverflow(t *testing.T) {
	e, err := Factor(FromRows([][]int64{{1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if tv, ok, err := e.Solve([]int64{math.MinInt64, 5}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Solve = %v, %v, %v; want ErrOverflow", tv, ok, err)
	}
}

func TestSolveBadRHS(t *testing.T) {
	A := FromRows([][]int64{{1}})
	e, _ := Factor(A)
	if _, _, err := e.Solve([]int64{1, 2}); err == nil {
		t.Fatal("wrong rhs length must error")
	}
}

func TestMatrixString(t *testing.T) {
	m := FromRows([][]int64{{1, -2}, {0, 3}})
	want := "[1 -2]\n[0 3]"
	if got := m.String(); got != want {
		t.Fatalf("String = %q", got)
	}
}
