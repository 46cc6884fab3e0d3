// Package ir defines the affine intermediate representation consumed by the
// dependence analyzer: linear integer expressions over loop-index and
// symbolic variables, loop nests with affine bounds, and array references.
//
// The representation mirrors the normalized form of Maydan, Hennessy & Lam
// (PLDI 1991, §2): loop bounds are integral linear functions of outer loop
// variables, subscripts are integral linear functions of the loop variables,
// and loop-invariant unknowns ("symbolic terms", §8) appear as additional
// variables without bounds.
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an affine integer expression: Const + Σ Terms[v]·v.
// The zero value is the constant 0. Terms never stores zero coefficients.
//
// Expr is an immutable value. Every operation returns a fresh expression
// (or, like Rename's no-op case, the receiver itself) and never writes to
// a term map it did not just allocate, so copies of an Expr may share one
// Terms map. Code that builds IR relies on this: the lowerer hands out one
// shared expression per variable name to every subscript, bound and scalar
// value that uses it. Nothing may write to Terms in place; clone first.
type Expr struct {
	Const int64
	Terms map[string]int64
}

// NewConst returns the constant expression c.
func NewConst(c int64) Expr { return Expr{Const: c} }

// NewVar returns the expression 1·name.
func NewVar(name string) Expr {
	return Expr{Terms: map[string]int64{name: 1}}
}

// NewTerm returns the expression coeff·name.
func NewTerm(name string, coeff int64) Expr {
	if coeff == 0 {
		return Expr{}
	}
	return Expr{Terms: map[string]int64{name: coeff}}
}

// Clone returns a deep copy of e.
func (e Expr) Clone() Expr {
	out := Expr{Const: e.Const}
	if len(e.Terms) > 0 {
		out.Terms = make(map[string]int64, len(e.Terms))
		for v, c := range e.Terms {
			out.Terms[v] = c
		}
	}
	return out
}

// Coeff returns the coefficient of variable v (0 if absent).
func (e Expr) Coeff(v string) int64 { return e.Terms[v] }

// IsConst reports whether e has no variable terms.
func (e Expr) IsConst() bool { return len(e.Terms) == 0 }

// IsZero reports whether e is the constant 0.
func (e Expr) IsZero() bool { return e.Const == 0 && len(e.Terms) == 0 }

// Uses reports whether variable v appears in e with a nonzero coefficient.
func (e Expr) Uses(v string) bool { return e.Terms[v] != 0 }

// Vars returns the variables of e in sorted order.
func (e Expr) Vars() []string {
	if len(e.Terms) == 0 {
		return nil
	}
	vs := make([]string, 0, len(e.Terms))
	for v := range e.Terms {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// NumTerms returns the number of variables with nonzero coefficients.
func (e Expr) NumTerms() int { return len(e.Terms) }

func (e *Expr) setCoeff(v string, c int64) {
	if c == 0 {
		delete(e.Terms, v)
		return
	}
	if e.Terms == nil {
		e.Terms = make(map[string]int64)
	}
	e.Terms[v] = c
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	out := e.Clone()
	out.Const += f.Const
	for v, c := range f.Terms {
		out.setCoeff(v, out.Terms[v]+c)
	}
	return out
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr {
	out := e.Clone()
	out.Const -= f.Const
	for v, c := range f.Terms {
		out.setCoeff(v, out.Terms[v]-c)
	}
	return out
}

// Neg returns -e.
func (e Expr) Neg() Expr { return Expr{}.Sub(e) }

// Scale returns k·e.
func (e Expr) Scale(k int64) Expr {
	if k == 0 {
		return Expr{}
	}
	out := Expr{Const: e.Const * k}
	for v, c := range e.Terms {
		out.setCoeff(v, c*k)
	}
	return out
}

// AddConst returns e + c.
func (e Expr) AddConst(c int64) Expr {
	out := e.Clone()
	out.Const += c
	return out
}

// Mul returns e·f if at least one operand is constant, and reports whether
// the product is affine. Products of two non-constant expressions are not
// representable and yield ok=false.
func (e Expr) Mul(f Expr) (Expr, bool) {
	switch {
	case e.IsConst():
		return f.Scale(e.Const), true
	case f.IsConst():
		return e.Scale(f.Const), true
	default:
		return Expr{}, false
	}
}

// Subst returns e with every occurrence of variable v replaced by repl.
func (e Expr) Subst(v string, repl Expr) Expr {
	c := e.Terms[v]
	if c == 0 {
		return e.Clone()
	}
	out := e.Clone()
	out.setCoeff(v, 0)
	return out.Add(repl.Scale(c))
}

// Rename returns e with variable old renamed to new. If new already appears
// in e the coefficients are combined. When old does not occur, e is returned
// as is (expressions are treated as immutable values throughout, so sharing
// the term map is safe and keeps the no-op case allocation-free — the common
// case for rectangular loop bounds renamed onto primed indices).
func (e Expr) Rename(old, new string) Expr {
	c := e.Terms[old]
	if c == 0 {
		return e
	}
	out := e.Clone()
	out.setCoeff(old, 0)
	out.setCoeff(new, out.Terms[new]+c)
	return out
}

// Eval evaluates e under the given variable assignment. It reports ok=false
// if a variable of e is missing from env.
func (e Expr) Eval(env map[string]int64) (int64, bool) {
	val := e.Const
	for v, c := range e.Terms {
		x, ok := env[v]
		if !ok {
			return 0, false
		}
		val += c * x
	}
	return val, true
}

// Equal reports whether e and f denote the same affine function.
func (e Expr) Equal(f Expr) bool {
	if e.Const != f.Const || len(e.Terms) != len(f.Terms) {
		return false
	}
	for v, c := range e.Terms {
		if f.Terms[v] != c {
			return false
		}
	}
	return true
}

// String renders e deterministically, e.g. "2*i - j + 10".
func (e Expr) String() string {
	var b strings.Builder
	first := true
	for _, v := range e.Vars() {
		c := e.Terms[v]
		writeTerm(&b, c, v, first)
		first = false
	}
	if e.Const != 0 || first {
		writeTerm(&b, e.Const, "", first)
	}
	return b.String()
}

func writeTerm(b *strings.Builder, c int64, v string, first bool) {
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
	if v == "" {
		fmt.Fprintf(b, "%d", c)
		return
	}
	if c != 1 {
		fmt.Fprintf(b, "%d*", c)
	}
	b.WriteString(v)
}
