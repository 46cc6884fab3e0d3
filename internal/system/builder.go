package system

import (
	"fmt"
	"strings"

	"exactdep/internal/ir"
	"exactdep/internal/linalg"
)

// Builder constructs dependence problems into reusable scratch storage. It
// exists because Build runs once per candidate pair even when the verdict
// comes out of the memo tables, so it sits on the memo-hot path. A Builder
// keeps the Problem shell, its slices, the Eq matrix backing and an arena
// of bound coefficient rows alive across calls, and resolves every
// subscript and bound term to a variable position once, so everything
// after Build reads integers and a warm Build allocates nothing.
//
// The Problem returned by Build aliases the Builder's scratch and is valid
// until the next Build call on the same Builder. Builders are not safe for
// concurrent use; give each worker its own.
type Builder struct {
	prob Problem
	eq   linalg.Matrix
	rows Scratch // bound coefficient rows
}

// find returns the position of the variable that renders as name: the
// A-side indices, then the primed B-side names, then the symbols. -1 if
// none does. Problems are small (a handful of indices plus symbols), so a
// linear scan beats building a map per call.
func (b *Builder) find(name string) int {
	for i := range b.prob.Vars {
		if b.prob.Vars[i].is(name) {
			return i
		}
	}
	return -1
}

// findIn returns the position of name among the B-side loops, which a
// B-side term names unprimed, or else find's.
func (b *Builder) findIn(loopsB []ir.Loop, name string) int {
	for lvl := range loopsB {
		if loopsB[lvl].Index == name {
			return b.prob.NumA + lvl
		}
	}
	return b.find(name)
}

// Build constructs the dependence problem for a candidate pair into the
// Builder's scratch. Each term resolves to a position once: a B-side
// subscript term to a B-side loop first, a B-side bound term to an outer
// B-side loop first, and every other name as find resolves it. An
// equality coefficient, right-hand side or bound coefficient past int64
// returns linalg.ErrOverflow instead of a wrapped value.
func (b *Builder) Build(p *ir.Pair) (*Problem, error) {
	ra, rb := &p.A.Ref, &p.B.Ref
	if ra.Array != rb.Array {
		return nil, fmt.Errorf("system: references to different arrays %q, %q", ra.Array, rb.Array)
	}
	if len(ra.Subscripts) != len(rb.Subscripts) {
		return nil, fmt.Errorf("system: %q referenced with %d and %d subscripts",
			ra.Array, len(ra.Subscripts), len(rb.Subscripts))
	}
	loopsA := p.A.Loops
	loopsB := p.B.Loops
	common := p.Common
	if common > len(loopsA) || common > len(loopsB) {
		return nil, fmt.Errorf("system: common depth %d exceeds stacks (%d, %d)",
			common, len(loopsA), len(loopsB))
	}

	prob := &b.prob
	prob.Common = common
	prob.NumA, prob.NumB = len(loopsA), len(loopsB)
	prob.Vars = prob.Vars[:0]
	for lvl := range loopsA {
		prob.Vars = append(prob.Vars, Variable{Name: loopsA[lvl].Index, Kind: IndexA, Level: lvl})
	}
	for lvl := range loopsB {
		prob.Vars = append(prob.Vars, Variable{Name: loopsB[lvl].Index, Kind: IndexB, Level: lvl})
	}
	for _, s := range p.Symbols {
		prob.Vars = append(prob.Vars, Variable{Name: s, Kind: Symbol, Level: -1})
	}
	n := len(prob.Vars)
	if err := b.checkNames(); err != nil {
		return nil, err
	}

	// Subscript equalities: subA(i, s) = subB(i', s), as subA's coefficients
	// minus subB's at each term's position, RHS = subB.Const - subA.Const.
	dims := len(ra.Subscripts)
	b.eq.Reshape(n, dims)
	prob.Eq = &b.eq
	if cap(prob.RHS) < dims {
		prob.RHS = make([]int64, dims)
	}
	prob.RHS = prob.RHS[:dims]
	for d := 0; d < dims; d++ {
		subA, subB := &ra.Subscripts[d], &rb.Subscripts[d]
		for _, t := range subA.Terms {
			if err := b.addEq(b.find(t.Var), d, t, false); err != nil {
				return nil, err
			}
		}
		for _, t := range subB.Terms {
			if err := b.addEq(b.findIn(loopsB, t.Var), d, t, true); err != nil {
				return nil, err
			}
		}
		rhs, err := linalg.SubChecked(subB.Const, subA.Const)
		if err != nil {
			return nil, err
		}
		prob.RHS[d] = rhs
	}

	// Bounds as positional rows carved from the arena: A-side bounds over
	// the unprimed outer indices and symbols, B-side bounds over the primed
	// outer indices.
	prob.Lower = resizeBounds(prob.Lower, n)
	prob.Upper = resizeBounds(prob.Upper, n)
	b.rows.Reset()
	for lvl := range loopsA {
		if err := b.bounds(&loopsA[lvl], nil, lvl); err != nil {
			return nil, err
		}
	}
	for lvl := range loopsB {
		if err := b.bounds(&loopsB[lvl], loopsB[:lvl], prob.NumA+lvl); err != nil {
			return nil, err
		}
	}

	if cap(prob.Constrains) < n {
		prob.Constrains = make([]bool, n)
	}
	prob.Constrains = prob.Constrains[:n]
	for k := range prob.Constrains {
		prob.Constrains[k] = nonzero(prob.Eq.Row(k))
	}
	for j := 0; j < n; j++ {
		markOthers(prob.Constrains, prob.Lower[j].Coef, j)
		markOthers(prob.Constrains, prob.Upper[j].Coef, j)
	}
	return prob, nil
}

// nonzero reports whether row has a nonzero entry.
func nonzero(row []int64) bool {
	for _, c := range row {
		if c != 0 {
			return true
		}
	}
	return false
}

// markOthers sets flag[k] for every nonzero row[k] but the row's own
// variable j.
func markOthers(flag []bool, row []int64, j int) {
	for k, c := range row {
		if c != 0 && k != j {
			flag[k] = true
		}
	}
}

// checkNames rejects two variables that render alike. A B-side index
// renders primed, so it can meet another variable only if that one is a
// B-side index too or its name ends in a prime: without such a name, only
// each side's names and the symbols need comparing among themselves.
func (b *Builder) checkNames() error {
	vars := b.prob.Vars
	primes := false
	for i := range vars {
		if v := &vars[i]; v.Kind != IndexB && strings.HasSuffix(v.Name, "'") {
			primes = true
		}
	}
	for i := 1; i < len(vars); i++ {
		for j := 0; j < i; j++ {
			if !primes && (vars[i].Kind == IndexB) != (vars[j].Kind == IndexB) {
				continue
			}
			if sameName(&vars[i], &vars[j]) {
				return fmt.Errorf("system: duplicate variable %q", vars[i])
			}
		}
	}
	return nil
}

// addEq adds (or, for the B side, subtracts) term t's coefficient at
// position i of equation d.
func (b *Builder) addEq(i, d int, t ir.Term, sub bool) error {
	if i < 0 {
		return fmt.Errorf("system: subscript uses unknown variable %q", t.Var)
	}
	var c int64
	var err error
	if sub {
		c, err = linalg.SubChecked(b.prob.Eq.At(i, d), t.Coeff)
	} else {
		c, err = linalg.AddChecked(b.prob.Eq.At(i, d), t.Coeff)
	}
	if err != nil {
		return err
	}
	b.prob.Eq.Set(i, d, c)
	return nil
}

// bounds sets the lower and upper bound of variable i, the index of loop
// l; outerB lists the B-side loops enclosing l (nil on the A side).
func (b *Builder) bounds(l *ir.Loop, outerB []ir.Loop, i int) error {
	if !l.NoLower {
		if err := b.bound(&b.prob.Lower[i], &l.Lower, outerB, i); err != nil {
			return err
		}
	}
	if !l.NoUpper {
		if err := b.bound(&b.prob.Upper[i], &l.Upper, outerB, i); err != nil {
			return err
		}
	}
	return nil
}

// bound resolves e into the cleared slot bd as a positional row: a name of
// an enclosing B-side loop to its primed index, any other as find resolves
// it. Terms that land on one position (a source name and its primed
// spelling) add up, and a row that cancels to zero is a constant bound.
func (b *Builder) bound(bd *Bound, e *ir.Expr, outerB []ir.Loop, i int) error {
	bd.Has, bd.Const = true, e.Const
	if len(e.Terms) == 0 {
		return nil
	}
	row := b.rows.ZeroRow(len(b.prob.Vars))
	for _, t := range e.Terms {
		k := b.findIn(outerB, t.Var)
		if k < 0 {
			return fmt.Errorf("system: bound of %q uses unknown variable %q", b.prob.Vars[i], t.Var)
		}
		c, err := linalg.AddChecked(row[k], t.Coeff)
		if err != nil {
			return err
		}
		row[k] = c
	}
	for _, c := range row {
		if c != 0 {
			bd.Coef = row
			break
		}
	}
	return nil
}

// sameName reports whether two variables render alike.
func sameName(a, c *Variable) bool {
	if (a.Kind == IndexB) == (c.Kind == IndexB) {
		return a.Name == c.Name
	}
	if a.Kind == IndexB {
		return a.is(c.Name)
	}
	return c.is(a.Name)
}

// resizeBounds returns bs resized to n cleared Bound slots, reusing the
// backing array when possible.
func resizeBounds(bs []Bound, n int) []Bound {
	if cap(bs) < n {
		return make([]Bound, n)
	}
	bs = bs[:n]
	clear(bs)
	return bs
}
