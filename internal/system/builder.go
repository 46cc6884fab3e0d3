package system

import (
	"fmt"

	"exactdep/internal/ir"
	"exactdep/internal/linalg"
)

// Builder constructs dependence problems into reusable scratch storage. It
// exists because Build runs once per candidate pair even when the verdict
// comes out of the memo tables, so its per-call allocations (the variable
// index map, the Eq matrix, renamed subscript and bound copies, primed-name
// strings) dominate the memo-hot allocation profile. A Builder keeps the
// Problem shell, its slices, the Eq matrix backing, an arena of bound terms
// and the primed-name cache alive across calls, and fills the equality
// matrix directly from the subscript terms instead of materializing
// renamed/subtracted expression copies, so a warm Build allocates nothing.
//
// The Problem returned by Build aliases the Builder's scratch and is valid
// until the next Build call on the same Builder. Builders are not safe for
// concurrent use; give each worker its own.
type Builder struct {
	prob   Problem
	eq     linalg.Matrix
	terms  []ir.Term // arena for the terms of renamed B-side bounds
	primed map[string]string
}

// primedName returns the cached B-side instance name of a loop index.
func (b *Builder) primedName(name string) string {
	if b.primed == nil {
		b.primed = make(map[string]string)
	}
	p, ok := b.primed[name]
	if !ok {
		p = primed(name)
		b.primed[name] = p
	}
	return p
}

// findVar returns the position of name among the variables built so far, or
// -1. Problems are small (a handful of indices plus symbols), so a linear
// scan beats building a map per call.
func (b *Builder) findVar(name string) int {
	for i := range b.prob.Vars {
		if b.prob.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

// Build constructs the dependence problem for a candidate pair into the
// Builder's scratch. Semantics (variable order, equalities, bounds,
// validation, error cases) match the package-level Build; only the storage
// discipline differs, and an equality coefficient or right-hand side past
// int64 returns linalg.ErrOverflow instead of a wrapped value.
func (b *Builder) Build(p ir.Pair) (*Problem, error) {
	ra, rb := p.A.Ref, p.B.Ref
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
	prob.Pair = p

	// Variable order: A-side indices outer→inner, B-side indices
	// outer→inner, then symbols. The order is part of the memoization key.
	prob.Vars = prob.Vars[:0]
	for lvl, l := range loopsA {
		prob.Vars = append(prob.Vars, Variable{Name: l.Index, Kind: IndexA, Level: lvl})
	}
	for lvl, l := range loopsB {
		prob.Vars = append(prob.Vars, Variable{Name: b.primedName(l.Index), Kind: IndexB, Level: lvl})
	}
	for _, s := range p.Symbols {
		prob.Vars = append(prob.Vars, Variable{Name: s, Kind: Symbol, Level: -1})
	}
	for i := 1; i < len(prob.Vars); i++ {
		for j := 0; j < i; j++ {
			if prob.Vars[j].Name == prob.Vars[i].Name {
				return nil, fmt.Errorf("system: duplicate variable %q", prob.Vars[i].Name)
			}
		}
	}

	// Subscript equalities: subA(i, s) = subB(i', s). Instead of renaming the
	// B-side expression onto primed indices and subtracting (two map clones
	// per dimension), add subA's coefficients and subtract subB's directly at
	// the variable positions the renames would have produced: a B-side term
	// naming loop level lvl lands at position len(loopsA)+lvl, everything
	// else (symbols, or A-side names a degenerate pair may share) resolves by
	// name against the variable list, exactly as Build's index map would.
	dims := len(ra.Subscripts)
	b.eq.Reshape(len(prob.Vars), dims)
	prob.Eq = &b.eq
	if cap(prob.RHS) < dims {
		prob.RHS = make([]int64, dims)
	}
	prob.RHS = prob.RHS[:dims]
	for d := 0; d < dims; d++ {
		subA := ra.Subscripts[d]
		subB := rb.Subscripts[d]
		for _, t := range subA.Terms {
			i := b.findVar(t.Var)
			if i < 0 {
				return nil, fmt.Errorf("system: subscript uses unknown variable %q", t.Var)
			}
			c, err := linalg.AddChecked(prob.Eq.At(i, d), t.Coeff)
			if err != nil {
				return nil, err
			}
			prob.Eq.Set(i, d, c)
		}
		for _, t := range subB.Terms {
			i := -1
			for lvl := range loopsB {
				if loopsB[lvl].Index == t.Var {
					i = len(loopsA) + lvl
					break
				}
			}
			if i < 0 {
				i = b.findVar(t.Var)
			}
			if i < 0 {
				return nil, fmt.Errorf("system: subscript uses unknown variable %q", t.Var)
			}
			c, err := linalg.SubChecked(prob.Eq.At(i, d), t.Coeff)
			if err != nil {
				return nil, err
			}
			prob.Eq.Set(i, d, c)
		}
		rhs, err := linalg.SubChecked(subB.Const, subA.Const)
		if err != nil {
			return nil, err
		}
		prob.RHS[d] = rhs
	}

	// Bounds: A-side bounds over unprimed outer indices and symbols; B-side
	// bounds renamed onto primed indices, their terms carved from the arena
	// (AppendRename is a no-op pass-through when the outer index does not
	// occur, the common rectangular case).
	prob.Lower = resizeBounds(prob.Lower, len(prob.Vars))
	prob.Upper = resizeBounds(prob.Upper, len(prob.Vars))
	for _, l := range loopsA {
		i := b.findVar(l.Index)
		if !l.NoLower {
			prob.Lower[i] = Bound{Has: true, Expr: l.Lower}
		}
		if !l.NoUpper {
			prob.Upper[i] = Bound{Has: true, Expr: l.Upper}
		}
	}
	b.terms = b.terms[:0]
	for lvl, l := range loopsB {
		i := len(loopsA) + lvl
		lo, hi := l.Lower, l.Upper
		for _, outer := range loopsB[:lvl] {
			pn := b.primedName(outer.Index)
			b.terms, lo = lo.AppendRename(b.terms, outer.Index, pn)
			b.terms, hi = hi.AppendRename(b.terms, outer.Index, pn)
		}
		if !l.NoLower {
			prob.Lower[i] = Bound{Has: true, Expr: lo}
		}
		if !l.NoUpper {
			prob.Upper[i] = Bound{Has: true, Expr: hi}
		}
	}
	// Validate that bound expressions only mention known variables, walking
	// the term rows directly (Expr.Vars copies the names into a fresh slice).
	for i := range prob.Vars {
		for _, bd := range [2]Bound{prob.Lower[i], prob.Upper[i]} {
			if !bd.Has {
				continue
			}
			for _, t := range bd.Expr.Terms {
				if b.findVar(t.Var) < 0 {
					return nil, fmt.Errorf("system: bound of %q uses unknown variable %q", prob.Vars[i].Name, t.Var)
				}
			}
		}
	}
	return prob, nil
}

// resizeBounds returns bs resized to n cleared Bound slots, reusing the
// backing array when possible.
func resizeBounds(bs []Bound, n int) []Bound {
	if cap(bs) < n {
		return make([]Bound, n)
	}
	bs = bs[:n]
	for i := range bs {
		bs[i] = Bound{}
	}
	return bs
}
