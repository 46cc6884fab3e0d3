package system

import (
	"fmt"
	"strings"

	"exactdep/internal/linalg"
)

// TExpr is an affine expression over the free t variables:
// Const + Σ Coef[f]·t_f.
type TExpr struct {
	Const int64
	Coef  []int64
}

// String renders e over t1..tn.
func (e TExpr) String() string {
	var b strings.Builder
	first := true
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		writeT(&b, c, i+1, first)
		first = false
	}
	if e.Const != 0 || first {
		if !first {
			if e.Const >= 0 {
				fmt.Fprintf(&b, " + %d", e.Const)
			} else {
				fmt.Fprintf(&b, " - %d", -e.Const)
			}
		} else {
			fmt.Fprintf(&b, "%d", e.Const)
		}
	}
	return b.String()
}

func writeT(b *strings.Builder, c int64, idx int, first bool) {
	switch {
	case first && c < 0:
		b.WriteString("-")
		c = -c
	case !first && c < 0:
		b.WriteString(" - ")
		c = -c
	case !first:
		b.WriteString(" + ")
	}
	if c != 1 {
		fmt.Fprintf(b, "%d*", c)
	}
	fmt.Fprintf(b, "t%d", idx)
}

// Constraint is the inequality Σ Coef[f]·t_f ≤ C.
type Constraint struct {
	Coef []int64
	C    int64
}

// NumVarsUsed returns the count of nonzero coefficients.
func (c Constraint) NumVarsUsed() int {
	n := 0
	for _, v := range c.Coef {
		if v != 0 {
			n++
		}
	}
	return n
}

// String renders the constraint.
func (c Constraint) String() string {
	e := TExpr{Coef: c.Coef}
	return fmt.Sprintf("%s <= %d", e.String(), c.C)
}

// Normalize divides the constraint by the gcd of its coefficients,
// tightening the constant with a floor (valid for integer solutions). It
// reports ok=false when the constraint is an unsatisfiable "0 ≤ negative",
// and linalg.ErrOverflow when the gcd is 2^63 (every nonzero coefficient is
// MinInt64).
func (c Constraint) Normalize() (Constraint, bool, error) {
	return Constraint{Coef: append([]int64(nil), c.Coef...), C: c.C}.NormalizeInPlace()
}

// NormalizeInPlace is Normalize for a constraint whose coefficient row is
// owned by the caller (e.g. a Scratch row): the gcd division writes back
// into c.Coef instead of allocating a fresh row.
func (c Constraint) NormalizeInPlace() (Constraint, bool, error) {
	g, err := linalg.GCDAll(c.Coef)
	if err != nil {
		return c, false, err
	}
	if g == 0 {
		// no variables: feasible iff 0 ≤ C
		return c, c.C >= 0, nil
	}
	if g > 1 {
		for i, v := range c.Coef {
			c.Coef[i] = v / g
		}
		c.C = linalg.FloorDiv(c.C, g)
	}
	return c, true, nil
}

// TSystem is the dependence problem after Extended GCD preprocessing: an
// inequality system over the free t variables, plus the parameterization of
// the original x variables in terms of t (used for distance vectors and
// direction constraints).
type TSystem struct {
	NumT int
	Cons []Constraint
	// XOf[i] expresses original variable i as an affine function of t.
	XOf []TExpr
	// Prob points back to the x-space problem.
	Prob *Problem
	// Infeasible is set when a bound constraint degenerated to an
	// unsatisfiable constant inequality during construction.
	Infeasible bool
}

// Clone returns a copy of the system with an independent constraint slice,
// sharing XOf, Prob and the constraint rows, which nothing mutates. The
// copy is valid as long as they are: a system from a Preprocessor until
// its next call.
func (s *TSystem) Clone() *TSystem {
	out := *s
	out.Cons = make([]Constraint, len(s.Cons))
	copy(out.Cons, s.Cons)
	return &out
}

// GCDResult reports the outcome of the Extended GCD test.
type GCDResult int

const (
	// GCDIndependent: the equality system alone has no integer solution.
	GCDIndependent GCDResult = iota
	// GCDDependent: integer solutions exist ignoring bounds; the returned
	// TSystem carries the bound constraints for the exact tests.
	GCDDependent
)

// Preprocess runs the Extended GCD test and, when it does not prove
// independence, builds the t-space inequality system. The system is the
// caller's: Preprocess runs a fresh Preprocessor.
func Preprocess(p *Problem) (GCDResult, *TSystem, error) {
	var pp Preprocessor
	return pp.Preprocess(p)
}

// Preprocessor runs Preprocess into reusable scratch: the echelon
// factorization, the solution, the TSystem shell with its XOf and
// constraint slices, and an arena for every t-space row. A cold solve runs
// Preprocess once per pair: into fresh storage that costs about fifty
// allocations a pair, into a warm Preprocessor none.
//
// The TSystem it returns is valid until its next Preprocess call, as a
// Builder's Problem is until its next Build (a Clone shares the rows, so
// it expires with them). A Preprocessor is not safe for concurrent use;
// give each worker its own.
type Preprocessor struct {
	ech  linalg.Echelon
	sol  []int64
	rows Scratch
	ts   TSystem
}

// Preprocess is the package-level Preprocess into the Preprocessor's
// scratch: the same verdict, system and errors.
func (pp *Preprocessor) Preprocess(p *Problem) (GCDResult, *TSystem, error) {
	if err := pp.ech.FactorInto(p.Eq); err != nil {
		return 0, nil, err
	}
	if cap(pp.sol) < pp.ech.Rank {
		pp.sol = make([]int64, pp.ech.Rank)
	}
	sol, ok, err := pp.ech.SolveInto(pp.sol, p.RHS)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return GCDIndependent, nil, nil
	}
	ech := &pp.ech
	n := len(p.Vars)
	numT := n - ech.Rank
	pp.rows.Reset()
	ts := &pp.ts
	*ts = TSystem{NumT: numT, Cons: ts.Cons[:0], XOf: ts.XOf[:0], Prob: p}
	// x_k = Σ_{i<rank} sol_i·U[i][k] + Σ_{f} t_f·U[rank+f][k]
	for k := 0; k < n; k++ {
		e := TExpr{Coef: pp.rows.Row(numT)}
		for i := 0; i < ech.Rank; i++ {
			prod, err := linalg.MulChecked(sol[i], ech.U.At(i, k))
			if err != nil {
				return 0, nil, err
			}
			if e.Const, err = linalg.AddChecked(e.Const, prod); err != nil {
				return 0, nil, err
			}
		}
		for f := 0; f < numT; f++ {
			e.Coef[f] = ech.U.At(ech.Rank+f, k)
		}
		ts.XOf = append(ts.XOf, e)
	}
	// Transform each bound into a t-space constraint.
	for i := range p.Vars {
		if p.Lower[i].Has {
			// L(x) ≤ x_i  →  L(x) - x_i ≤ 0
			if err := pp.addBound(&p.Lower[i], i, true); err != nil {
				return 0, nil, err
			}
		}
		if p.Upper[i].Has {
			// x_i ≤ U(x)  →  x_i - U(x) ≤ 0
			if err := pp.addBound(&p.Upper[i], i, false); err != nil {
				return 0, nil, err
			}
		}
	}
	return GCDDependent, ts, nil
}

// addBound pushes one bound of x_i as a t-space constraint: L(x) - x_i ≤ 0
// for a lower bound, x_i - U(x) ≤ 0 for an upper one. The bound is
// substituted into an arena row and x_i is subtracted in place, every step
// checked for overflow; the constants are subtracted in the order that
// leaves the right-hand side, so no negation can wrap.
func (pp *Preprocessor) addBound(b *Bound, i int, lower bool) error {
	ts := &pp.ts
	row := pp.rows.Row(ts.NumT)
	c, err := exprToT(b, ts.XOf, row)
	if err != nil {
		return err
	}
	x := ts.XOf[i]
	if lower {
		if c, err = linalg.SubChecked(x.Const, c); err != nil {
			return err
		}
		for f := range row {
			if row[f], err = linalg.SubChecked(row[f], x.Coef[f]); err != nil {
				return err
			}
		}
	} else {
		if c, err = linalg.SubChecked(c, x.Const); err != nil {
			return err
		}
		for f := range row {
			if row[f], err = linalg.SubChecked(x.Coef[f], row[f]); err != nil {
				return err
			}
		}
	}
	return ts.pushConstraint(row, c)
}

// exprToT substitutes each variable's t parameterization into the bound
// row b, in position order: it writes the t coefficients into row (len
// NumT) and returns the constant.
func exprToT(b *Bound, xof []TExpr, row []int64) (int64, error) {
	clear(row)
	c := b.Const
	var err error
	for k, coeff := range b.Coef {
		if coeff == 0 {
			continue
		}
		prod, err2 := linalg.MulChecked(coeff, xof[k].Const)
		if err2 != nil {
			return 0, err2
		}
		if c, err = linalg.AddChecked(c, prod); err != nil {
			return 0, err
		}
		for f := range row {
			prod, err2 := linalg.MulChecked(coeff, xof[k].Coef[f])
			if err2 != nil {
				return 0, err2
			}
			if row[f], err = linalg.AddChecked(row[f], prod); err != nil {
				return 0, err
			}
		}
	}
	return c, nil
}

// AddDirection appends the constraint for direction dir at common loop level
// lvl: '<' means iA < iB, '=' equality (two inequalities), '>' iA > iB.
// It returns an error for unknown directions or overflow.
func (s *TSystem) AddDirection(lvl int, dir byte) error {
	return s.PushDirection(lvl, dir, nil)
}

// TrailMark is a snapshot of the constraint stack, taken by Mark and
// restored by PopTo. It captures the constraint count and the infeasibility
// flag — everything PushDirection can change.
type TrailMark struct {
	cons       int
	infeasible bool
}

// Mark snapshots the constraint stack for a later PopTo. The refinement
// walk brackets every direction push with Mark/PopTo so one scratch system
// serves the whole DFS instead of a clone per tree node.
func (s *TSystem) Mark() TrailMark {
	return TrailMark{cons: len(s.Cons), infeasible: s.Infeasible}
}

// PopTo restores the system to a Mark, dropping every constraint pushed
// since. Marks must be popped in LIFO order. Constraint rows handed out by
// an arena between Mark and PopTo may be released with it (the dropped
// constraints are the only references).
func (s *TSystem) PopTo(m TrailMark) {
	s.Cons = s.Cons[:m.cons]
	s.Infeasible = m.infeasible
}

// PushDirection is AddDirection drawing its constraint rows from sc, so a
// Mark/PushDirection/PopTo bracket allocates nothing once the arena is warm
// (pass sc=nil to allocate fresh rows, which is what AddDirection does).
// The pushed constraints are bit-identical to AddDirection's. On error the
// system is unchanged.
func (s *TSystem) PushDirection(lvl int, dir byte, sc *Scratch) error {
	ai, bi := s.Prob.CommonPair(lvl)
	if ai < 0 || bi < 0 {
		return fmt.Errorf("system: level %d is not a common loop", lvl)
	}
	a, b := s.XOf[ai], s.XOf[bi]
	dc, err := linalg.SubChecked(a.Const, b.Const) // (iA - iB).Const
	if err != nil {
		return err
	}
	// row materializes sign·(iA - iB)'s coefficients, checking the
	// subtraction and the sign flip.
	row := func(sign int64) ([]int64, error) {
		var r []int64
		if sc != nil {
			r = sc.Row(len(a.Coef))
		} else {
			r = make([]int64, len(a.Coef))
		}
		for i := range r {
			d, err := linalg.SubChecked(a.Coef[i], b.Coef[i])
			if err != nil {
				return nil, err
			}
			if r[i], err = linalg.MulChecked(sign, d); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	switch dir {
	case '<': // iA - iB ≤ -1
		r, err := row(1)
		if err != nil {
			return err
		}
		return s.pushConstraint(r, -1-dc) // fits for every int64 dc
	case '=': // iA - iB ≤ 0 and iB - iA ≤ 0
		c, err := linalg.SubChecked(0, dc)
		if err != nil {
			return err
		}
		r1, err := row(1)
		if err != nil {
			return err
		}
		r2, err := row(-1)
		if err != nil {
			return err
		}
		m := s.Mark()
		if err := s.pushConstraint(r1, c); err != nil {
			return err
		}
		if err := s.pushConstraint(r2, dc); err != nil {
			s.PopTo(m)
			return err
		}
	case '>': // iB - iA ≤ -1
		c, err := linalg.SubChecked(dc, 1)
		if err != nil {
			return err
		}
		r, err := row(-1)
		if err != nil {
			return err
		}
		return s.pushConstraint(r, c)
	default:
		return fmt.Errorf("system: unknown direction %q", string(dir))
	}
	return nil
}

// pushConstraint appends "coef·t ≤ c" normalized in place: the gcd
// division writes into the caller-owned row. Trivially true constraints are
// dropped; trivially false ones mark the system infeasible. A gcd past
// int64 is linalg.ErrOverflow and leaves the system unchanged.
func (s *TSystem) pushConstraint(coef []int64, c int64) error {
	nc, ok, err := (Constraint{Coef: coef, C: c}).NormalizeInPlace()
	if err != nil {
		return err
	}
	if !ok {
		s.Infeasible = true
		return nil
	}
	if nc.NumVarsUsed() == 0 {
		return nil // 0 ≤ C with C ≥ 0: vacuous
	}
	s.Cons = append(s.Cons, nc)
	return nil
}

// Distance reports iB - iA at common level lvl when it is a constant: a
// known dependence distance (paper §6). ok is false when the distance
// varies with the free t variables, when lvl is not a common loop, or when
// the subtraction overflows. It runs the checked arithmetic of the full
// t-space subtraction without materializing the row, so it allocates
// nothing.
func (s *TSystem) Distance(lvl int) (d int64, ok bool) {
	ai, bi := s.Prob.CommonPair(lvl)
	if ai < 0 || bi < 0 {
		return 0, false
	}
	a, b := s.XOf[ai], s.XOf[bi]
	d, err := linalg.SubChecked(b.Const, a.Const)
	if err != nil {
		return 0, false
	}
	for i := range b.Coef {
		if c, err := linalg.SubChecked(b.Coef[i], a.Coef[i]); err != nil || c != 0 {
			return 0, false
		}
	}
	return d, true
}

// LevelUsed reports whether common level lvl's index variables actually
// constrain the problem (see Problem.LevelUsed).
func (s *TSystem) LevelUsed(lvl int) bool { return s.Prob.LevelUsed(lvl) }

// String renders the t-space system.
func (s *TSystem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t-system (%d vars, %d constraints)\n", s.NumT, len(s.Cons))
	for i, x := range s.XOf {
		fmt.Fprintf(&b, "  %s = %s\n", s.Prob.Vars[i], x.String())
	}
	for _, c := range s.Cons {
		fmt.Fprintf(&b, "  %s\n", c.String())
	}
	return b.String()
}
