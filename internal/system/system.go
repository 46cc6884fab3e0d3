// Package system builds the integer dependence problem for a pair of array
// references and applies Banerjee's Extended GCD preprocessing (Maydan,
// Hennessy & Lam §3.1): the subscript equality system x·A = c is factored
// through U·A = D (U unimodular, D echelon); if t·D = c has no integer
// solution the references are independent outright, and otherwise the loop
// bounds are re-expressed as inequality constraints over the free t
// variables, the form all later exact tests consume.
package system

import (
	"fmt"
	"strings"

	"exactdep/internal/ir"
	"exactdep/internal/linalg"
)

// VarKind classifies the variables of a dependence problem.
type VarKind int

const (
	// IndexA is a loop index instance for the first reference's iteration.
	IndexA VarKind = iota
	// IndexB is a loop index instance for the second reference's iteration.
	IndexB
	// Symbol is a loop-invariant unknown shared by both iterations (§8).
	Symbol
)

// Variable is one unknown of the x-space system.
type Variable struct {
	Name  string
	Kind  VarKind
	Level int // loop nesting level for index variables, -1 for symbols
}

// Bound is an optional affine bound over other problem variables.
type Bound struct {
	Has  bool
	Expr ir.Expr
}

// Problem is the x-space dependence problem: find integer x with
// x·Eq = RHS subject to Lower[k] ≤ x_k ≤ Upper[k] where present.
type Problem struct {
	Vars   []Variable
	Eq     *linalg.Matrix // len(Vars) × dims
	RHS    []int64
	Lower  []Bound
	Upper  []Bound
	Common int // number of loops shared by the two references
	// Pair retains the source references for reporting (may be zero value).
	Pair ir.Pair
}

// primed returns the B-side instance name of a loop index.
func primed(name string) string { return name + "'" }

// Build constructs the dependence problem for a candidate pair. The two
// references must name the same array with equal dimensionality.
func Build(p ir.Pair) (*Problem, error) {
	a, b := p.A.Ref, p.B.Ref
	if a.Array != b.Array {
		return nil, fmt.Errorf("system: references to different arrays %q, %q", a.Array, b.Array)
	}
	if len(a.Subscripts) != len(b.Subscripts) {
		return nil, fmt.Errorf("system: %q referenced with %d and %d subscripts",
			a.Array, len(a.Subscripts), len(b.Subscripts))
	}
	loopsA := p.A.Loops
	loopsB := p.B.Loops
	common := p.Common
	if common > len(loopsA) || common > len(loopsB) {
		return nil, fmt.Errorf("system: common depth %d exceeds stacks (%d, %d)",
			common, len(loopsA), len(loopsB))
	}

	prob := &Problem{Common: common, Pair: p}
	// Variable order: A-side indices outer→inner, B-side indices
	// outer→inner, then symbols. The order is part of the memoization key.
	for lvl, l := range loopsA {
		prob.Vars = append(prob.Vars, Variable{Name: l.Index, Kind: IndexA, Level: lvl})
	}
	for lvl, l := range loopsB {
		prob.Vars = append(prob.Vars, Variable{Name: primed(l.Index), Kind: IndexB, Level: lvl})
	}
	for _, s := range p.Symbols {
		prob.Vars = append(prob.Vars, Variable{Name: s, Kind: Symbol, Level: -1})
	}
	index := make(map[string]int, len(prob.Vars))
	for i, v := range prob.Vars {
		if _, dup := index[v.Name]; dup {
			return nil, fmt.Errorf("system: duplicate variable %q", v.Name)
		}
		index[v.Name] = i
	}

	// Subscript equalities: subA(i, s) = subB(i', s). The B-side expression
	// is renamed onto primed loop indices; symbols stay shared.
	dims := len(a.Subscripts)
	prob.Eq = linalg.NewMatrix(len(prob.Vars), dims)
	prob.RHS = make([]int64, dims)
	for d := 0; d < dims; d++ {
		subA := a.Subscripts[d]
		subB := b.Subscripts[d]
		for _, l := range loopsB {
			subB = subB.Rename(l.Index, primed(l.Index))
		}
		diff := subA.Sub(subB) // Σ coeff·x = RHS form with RHS = -const
		for _, t := range diff.Terms {
			i, ok := index[t.Var]
			if !ok {
				return nil, fmt.Errorf("system: subscript uses unknown variable %q", t.Var)
			}
			prob.Eq.Set(i, d, t.Coeff)
		}
		prob.RHS[d] = -diff.Const
	}

	// Bounds: A-side bounds over unprimed outer indices and symbols; B-side
	// bounds renamed onto primed indices.
	prob.Lower = make([]Bound, len(prob.Vars))
	prob.Upper = make([]Bound, len(prob.Vars))
	for _, l := range loopsA {
		i := index[l.Index]
		if !l.NoLower {
			prob.Lower[i] = Bound{Has: true, Expr: l.Lower}
		}
		if !l.NoUpper {
			prob.Upper[i] = Bound{Has: true, Expr: l.Upper}
		}
	}
	for lvl, l := range loopsB {
		i := index[primed(l.Index)]
		lo, hi := l.Lower, l.Upper
		for _, outer := range loopsB[:lvl] {
			lo = lo.Rename(outer.Index, primed(outer.Index))
			hi = hi.Rename(outer.Index, primed(outer.Index))
		}
		if !l.NoLower {
			prob.Lower[i] = Bound{Has: true, Expr: lo}
		}
		if !l.NoUpper {
			prob.Upper[i] = Bound{Has: true, Expr: hi}
		}
	}
	// Validate that bound expressions only mention known variables.
	for i := range prob.Vars {
		for _, b := range []Bound{prob.Lower[i], prob.Upper[i]} {
			if !b.Has {
				continue
			}
			for _, v := range b.Expr.Vars() {
				if _, ok := index[v]; !ok {
					return nil, fmt.Errorf("system: bound of %q uses unknown variable %q", prob.Vars[i].Name, v)
				}
			}
		}
	}
	return prob, nil
}

// VarIndex returns the position of the named variable, or -1.
func (p *Problem) VarIndex(name string) int {
	for i, v := range p.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// CommonPair returns the x-space indices of the A-side and B-side instances
// of common loop level lvl.
func (p *Problem) CommonPair(lvl int) (ai, bi int) {
	ai, bi = -1, -1
	for i, v := range p.Vars {
		if v.Level != lvl {
			continue
		}
		switch v.Kind {
		case IndexA:
			ai = i
		case IndexB:
			bi = i
		}
	}
	return ai, bi
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vars:")
	for _, v := range p.Vars {
		fmt.Fprintf(&b, " %s", v.Name)
	}
	b.WriteByte('\n')
	for d := 0; d < p.Eq.Cols; d++ {
		first := true
		for i := range p.Vars {
			c := p.Eq.At(i, d)
			if c == 0 {
				continue
			}
			if !first {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%d·%s", c, p.Vars[i].Name)
			first = false
		}
		if first {
			b.WriteString("0")
		}
		fmt.Fprintf(&b, " = %d\n", p.RHS[d])
	}
	for i, v := range p.Vars {
		lo, hi := "-inf", "+inf"
		if p.Lower[i].Has {
			lo = p.Lower[i].Expr.String()
		}
		if p.Upper[i].Has {
			hi = p.Upper[i].Expr.String()
		}
		fmt.Fprintf(&b, "%s ≤ %s ≤ %s\n", lo, v.Name, hi)
	}
	return b.String()
}
