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

// Variable is one unknown of the x-space system. A B-side index keeps its
// loop's source name; String renders it primed (i').
type Variable struct {
	Name  string
	Kind  VarKind
	Level int // loop nesting level for index variables, -1 for symbols
}

// String renders the variable's name, primed for a B-side index.
func (v Variable) String() string {
	if v.Kind == IndexB {
		return v.Name + "'"
	}
	return v.Name
}

// is reports whether v renders as name, without building the primed string.
func (v Variable) is(name string) bool {
	if v.Kind != IndexB {
		return v.Name == name
	}
	n := len(v.Name)
	return len(name) == n+1 && name[n] == '\'' && name[:n] == v.Name
}

// Bound is an optional affine bound over the problem's variables, one row
// of the paper's bound inequalities (§3.1): Const + Σ Coef[k]·x_k, with Coef
// indexed by variable position and nil for a constant bound.
type Bound struct {
	Has   bool
	Const int64
	Coef  []int64
}

// Problem is the x-space dependence problem: find integer x with
// x·Eq = RHS subject to Lower[k] ≤ x_k ≤ Upper[k] where present. The
// variables are the NumA A-side loop indices outer→inner, the NumB B-side
// ones, then the symbols; that order is part of the memoization key.
type Problem struct {
	Vars       []Variable
	NumA, NumB int
	Eq         *linalg.Matrix // len(Vars) × dims
	RHS        []int64
	Lower      []Bound
	Upper      []Bound
	// Constrains[k] reports whether variable k constrains the problem: it
	// has a nonzero equation coefficient or occurs in another variable's
	// bound.
	Constrains []bool
	Common     int // number of loops shared by the two references
}

// Build constructs the dependence problem for a candidate pair. The two
// references must name the same array with equal dimensionality. It runs a
// fresh Builder, so the Problem is the caller's.
func Build(p ir.Pair) (*Problem, error) {
	var b Builder
	return b.Build(&p)
}

// CommonPair returns the x-space indices of the A-side and B-side instances
// of loop level lvl, -1 for a side without that level.
func (p *Problem) CommonPair(lvl int) (ai, bi int) {
	ai, bi = -1, -1
	if lvl >= 0 && lvl < p.NumA {
		ai = lvl
	}
	if lvl >= 0 && lvl < p.NumB {
		bi = p.NumA + lvl
	}
	return ai, bi
}

// LevelUsed reports whether common level lvl's index variables actually
// constrain the problem: either instance appears in a subscript equation or
// in the bound of any other variable. Unused levels always admit every
// direction (the paper's unused-variable pruning, §5 and §6).
func (p *Problem) LevelUsed(lvl int) bool {
	ai, bi := p.CommonPair(lvl)
	return ai >= 0 && p.Constrains[ai] || bi >= 0 && p.Constrains[bi]
}

// boundString renders a bound over the variables' names.
func (p *Problem) boundString(b Bound) string {
	e := ir.NewConst(b.Const)
	for k, c := range b.Coef {
		if c != 0 {
			e = e.Add(ir.NewTerm(p.Vars[k].String(), c))
		}
	}
	return e.String()
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vars:")
	for _, v := range p.Vars {
		fmt.Fprintf(&b, " %s", v)
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
			fmt.Fprintf(&b, "%d·%s", c, p.Vars[i])
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
			lo = p.boundString(p.Lower[i])
		}
		if p.Upper[i].Has {
			hi = p.boundString(p.Upper[i])
		}
		fmt.Fprintf(&b, "%s ≤ %s ≤ %s\n", lo, v, hi)
	}
	return b.String()
}
