// Package linalg provides the exact integer linear algebra underpinning the
// dependence tests: gcd computations, checked int64 arithmetic, integer
// matrices, and the unimodular–echelon factorization U·A = D used by
// Banerjee's Extended GCD test (Maydan et al. §3.1).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// ErrOverflow is returned when an exact computation would exceed int64.
// Callers treat overflow as "test not applicable" rather than risk a wrong
// exact answer.
var ErrOverflow = errors.New("linalg: int64 overflow")

// AddChecked returns a+b or ErrOverflow.
func AddChecked(a, b int64) (int64, error) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, ErrOverflow
	}
	return s, nil
}

// SubChecked returns a-b or ErrOverflow. Unlike AddChecked(a, -b) it is
// exact at b = math.MinInt64, whose negation wraps to itself.
func SubChecked(a, b int64) (int64, error) {
	s := a - b
	if (b > 0 && s > a) || (b < 0 && s < a) {
		return 0, ErrOverflow
	}
	return s, nil
}

// MulChecked returns a*b or ErrOverflow.
func MulChecked(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	// p/b == a misses one overflow: MinInt64 * -1 wraps to MinInt64, and
	// Go defines MinInt64 / -1 as MinInt64 again.
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, ErrOverflow
	}
	return p, nil
}

// GCD returns the non-negative greatest common divisor of a and b, with
// GCD(0,0) = 0. It is ErrOverflow only when that divisor is 2^63, which
// needs a and b each 0 or MinInt64.
func GCD(a, b int64) (int64, error) {
	return fitGCD(gcdU(absU(a), absU(b)))
}

// GCDAll returns the gcd of all values (0 for an empty or all-zero slice),
// or ErrOverflow when it is 2^63 (every nonzero value is MinInt64).
func GCDAll(vs []int64) (int64, error) {
	var g uint64
	for _, v := range vs {
		if g = gcdU(g, absU(v)); g == 1 {
			return 1, nil
		}
	}
	return fitGCD(g)
}

// absU returns |v| as a uint64, exact at MinInt64.
func absU(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

func gcdU(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func fitGCD(g uint64) (int64, error) {
	if g > math.MaxInt64 {
		return 0, ErrOverflow
	}
	return int64(g), nil
}

// ExtGCD returns g = gcd(a,b) and Bézout coefficients x, y with a·x+b·y = g.
// g is non-negative.
func ExtGCD(a, b int64) (g, x, y int64) {
	oldR, r := a, b
	oldS, s := int64(1), int64(0)
	oldT, t := int64(0), int64(1)
	for r != 0 {
		q := oldR / r
		oldR, r = r, oldR-q*r
		oldS, s = s, oldS-q*s
		oldT, t = t, oldT-q*t
	}
	if oldR < 0 {
		oldR, oldS, oldT = -oldR, -oldS, -oldT
	}
	return oldR, oldS, oldT
}

// FloorDiv returns ⌊a/b⌋ for b ≠ 0.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for b ≠ 0.
func CeilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// FloorCeilDiv returns ⌊a/b⌋ and ⌈a/b⌉ for b ≠ 0, or ErrOverflow for
// MinInt64 / -1, the one quotient past int64 (Go evaluates it to MinInt64).
func FloorCeilDiv(a, b int64) (floor, ceil int64, err error) {
	if a == math.MinInt64 && b == -1 {
		return 0, 0, ErrOverflow
	}
	q := a / b
	floor, ceil = q, q
	if a%b != 0 {
		if (a < 0) != (b < 0) {
			floor--
		} else {
			ceil++
		}
	}
	return floor, ceil, nil
}

// Matrix is a dense rows×cols integer matrix.
type Matrix struct {
	Rows, Cols int
	a          []int64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, a: make([]int64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices (which must all share a length).
func FromRows(rows [][]int64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.a[i*m.Cols:], r)
	}
	return m
}

// Reshape resizes m to rows×cols and zeroes every element, reusing the
// backing array when it is large enough. It is the scratch-reuse counterpart
// of NewMatrix for callers (system.Builder) that rebuild a matrix per
// problem without allocating one per call.
func (m *Matrix) Reshape(rows, cols int) {
	m.resize(rows, cols)
	clear(m.a)
}

// resize sets m's shape to rows×cols, reusing the backing array when it is
// large enough, and leaves the elements unspecified.
func (m *Matrix) resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.a) < n {
		m.a = make([]int64, n)
	} else {
		m.a = m.a[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) int64 { return m.a[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v int64) { m.a[i*m.Cols+j] = v }

// Row returns row i, aliasing the matrix (capacity clipped): valid until
// the matrix is next reshaped, and read-only for callers that do not own it.
func (m *Matrix) Row(i int) []int64 { return m.a[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.a, m.a)
	return out
}

// SwapRows exchanges rows i and j.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.a[i*m.Cols:(i+1)*m.Cols], m.a[j*m.Cols:(j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// NegateRow multiplies row i by -1. A row holding MinInt64, whose negation
// wraps to itself, is ErrOverflow and stays unchanged.
func (m *Matrix) NegateRow(i int) error {
	r := m.a[i*m.Cols : (i+1)*m.Cols]
	if slices.Contains(r, math.MinInt64) {
		return ErrOverflow
	}
	for k := range r {
		r[k] = -r[k]
	}
	return nil
}

// AddMulRow adds k times row src to row dst; a unimodular row operation.
func (m *Matrix) AddMulRow(dst, src int, k int64) error {
	rd := m.a[dst*m.Cols : (dst+1)*m.Cols]
	rs := m.a[src*m.Cols : (src+1)*m.Cols]
	for i := range rd {
		p, err := MulChecked(k, rs[i])
		if err != nil {
			return err
		}
		s, err := AddChecked(rd[i], p)
		if err != nil {
			return err
		}
		rd[i] = s
	}
	return nil
}

// Mul returns m·n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				p, err := MulChecked(mik, n.At(k, j))
				if err != nil {
					return nil, err
				}
				s, err := AddChecked(out.At(i, j), p)
				if err != nil {
					return nil, err
				}
				out.Set(i, j, s)
			}
		}
	}
	return out, nil
}

// Equal reports whether m and n have identical shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.a {
		if n.a[i] != v {
			return false
		}
	}
	return true
}

// String renders the matrix row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteByte('[')
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Echelon is the result of the unimodular–echelon factorization of A:
// U·A = D with U unimodular (n×n) and D in row-echelon form with positive
// leading entries. Rank is the number of nonzero rows of D, and Lead[i] is
// the column of row i's leading entry (for i < Rank).
type Echelon struct {
	U    *Matrix
	D    *Matrix
	Rank int
	Lead []int
}

// Factor computes the unimodular–echelon factorization of A (n rows = the
// problem variables, m cols = the equations), exactly as needed by the
// Extended GCD test: U·A = D, so integer solutions of x·A = c correspond to
// t·D = c via x = t·U.
func Factor(A *Matrix) (*Echelon, error) {
	e := &Echelon{}
	if err := e.FactorInto(A); err != nil {
		return nil, err
	}
	return e, nil
}

// FactorInto is Factor into e's storage: U, D and Lead reuse their backing
// arrays across calls, so a caller that factors one problem after another
// (system.Preprocessor) allocates nothing once they are large enough. On
// error e holds a partial factorization and must not be read.
func (e *Echelon) FactorInto(A *Matrix) error {
	n := A.Rows
	if e.U == nil {
		e.U, e.D = &Matrix{}, &Matrix{}
	}
	U, D := e.U, e.D
	U.Reshape(n, n)
	for i := 0; i < n; i++ {
		U.Set(i, i, 1)
	}
	D.resize(A.Rows, A.Cols)
	copy(D.a, A.a)
	pivotRow := 0
	lead := e.Lead[:0]
	for col := 0; col < D.Cols && pivotRow < n; col++ {
		// Euclid's algorithm down column col, rows pivotRow..n-1: reduce to
		// a single nonzero at pivotRow using unimodular row ops.
		for {
			// find row with the smallest nonzero |entry| in this column
			best, bestAbs := -1, int64(0)
			for r := pivotRow; r < n; r++ {
				v := D.At(r, col)
				if v == 0 {
					continue
				}
				av, err := abs64(v)
				if err != nil {
					return err
				}
				if best == -1 || av < bestAbs {
					best, bestAbs = r, av
				}
			}
			if best == -1 {
				break // column already zero below pivot
			}
			D.SwapRows(pivotRow, best)
			U.SwapRows(pivotRow, best)
			p := D.At(pivotRow, col)
			done := true
			for r := pivotRow + 1; r < n; r++ {
				v := D.At(r, col)
				if v == 0 {
					continue
				}
				nq, err := negQuotient(v, p)
				if err != nil {
					return err
				}
				if err := D.AddMulRow(r, pivotRow, nq); err != nil {
					return err
				}
				if err := U.AddMulRow(r, pivotRow, nq); err != nil {
					return err
				}
				if D.At(r, col) != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if D.At(pivotRow, col) != 0 {
			if D.At(pivotRow, col) < 0 {
				if err := D.NegateRow(pivotRow); err != nil {
					return err
				}
				if err := U.NegateRow(pivotRow); err != nil {
					return err
				}
			}
			lead = append(lead, col)
			pivotRow++
		}
	}
	e.Rank, e.Lead = pivotRow, lead
	return nil
}

// abs64 returns |v|, or ErrOverflow at MinInt64.
func abs64(v int64) (int64, error) {
	if v < 0 {
		return SubChecked(0, v)
	}
	return v, nil
}

// negQuotient returns -(v/p), the multiplier of one Euclid step; the
// truncating quotient keeps |remainder| < |p|. It is ErrOverflow where the
// quotient or its negation passes int64 (v = MinInt64 with p = ±1).
func negQuotient(v, p int64) (int64, error) {
	if v == math.MinInt64 && p == -1 {
		return 0, ErrOverflow
	}
	return SubChecked(0, v/p)
}

// Solve solves t·D = c for the echelon factorization: it returns the
// determined components t[0..Rank) and ok=false if no integer solution
// exists. Rows ≥ Rank of t are free parameters (not returned).
func (e *Echelon) Solve(c []int64) (t []int64, ok bool, err error) {
	return e.SolveInto(nil, c)
}

// SolveInto is Solve writing t into dst's backing array when its capacity
// reaches Rank (a fresh slice otherwise), so a reused buffer makes the solve
// allocation-free.
func (e *Echelon) SolveInto(dst, c []int64) (t []int64, ok bool, err error) {
	if len(c) != e.D.Cols {
		return nil, false, fmt.Errorf("linalg: rhs length %d, want %d", len(c), e.D.Cols)
	}
	if cap(dst) < e.Rank {
		dst = make([]int64, e.Rank)
	}
	t = dst[:e.Rank]
	next := 0 // next pivot row to determine
	for col := 0; col < e.D.Cols; col++ {
		// residual = c[col] - Σ_{determined i} t_i·D[i][col]
		res := c[col]
		for i := 0; i < next; i++ {
			p, err2 := MulChecked(t[i], e.D.At(i, col))
			if err2 != nil {
				return nil, false, err2
			}
			s, err2 := SubChecked(res, p)
			if err2 != nil {
				return nil, false, err2
			}
			res = s
		}
		if next < e.Rank && e.Lead[next] == col {
			d := e.D.At(next, col)
			if res%d != 0 {
				return nil, false, nil // gcd failure: no integer solution
			}
			t[next] = res / d
			next++
			continue
		}
		if res != 0 {
			return nil, false, nil // inconsistent equation
		}
	}
	return t, true, nil
}
