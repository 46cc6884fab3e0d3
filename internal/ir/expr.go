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

import "strconv"

// Term is one variable of an affine expression with its coefficient.
type Term struct {
	Var   string
	Coeff int64
}

// Expr is an affine integer expression: Const + Σ t.Coeff·t.Var over Terms,
// one row of the paper's A·x = b (§3.1). The zero value is the constant 0.
// Terms is sorted by Var (byte order), names are unique, and no
// coefficient is zero; an expression without variables has nil Terms.
//
// Expr is an immutable value. Every operation returns a fresh expression or,
// where the terms do not change (AddConst, adding a constant, Scale(1), a
// Subst of an absent variable), one sharing an operand's terms.
// None appends to or writes into a Terms slice it did not just allocate, so
// copies of an Expr may share one backing array. Code that builds IR relies
// on this: the lowerer hands out one shared expression per variable name to
// every subscript, bound and scalar value that uses it. Nothing may write
// to Terms in place; Clone first. Read terms through Coeff and Vars, or
// range over Terms; build expressions with the constructors and
// operations, which keep the order.
type Expr struct {
	Const int64
	Terms []Term
}

// NewConst returns the constant expression c.
func NewConst(c int64) Expr { return Expr{Const: c} }

// NewVar returns the expression 1·name.
func NewVar(name string) Expr {
	return Expr{Terms: []Term{{Var: name, Coeff: 1}}}
}

// NewTerm returns the expression coeff·name.
func NewTerm(name string, coeff int64) Expr {
	if coeff == 0 {
		return Expr{}
	}
	return Expr{Terms: []Term{{Var: name, Coeff: coeff}}}
}

// Clone returns a deep copy of e.
func (e Expr) Clone() Expr {
	out := Expr{Const: e.Const}
	if len(e.Terms) > 0 {
		out.Terms = append([]Term(nil), e.Terms...)
	}
	return out
}

// index returns the position of variable v in e.Terms, or -1.
func (e Expr) index(v string) int {
	for i := range e.Terms {
		if e.Terms[i].Var == v {
			return i
		}
	}
	return -1
}

// Coeff returns the coefficient of variable v (0 if absent).
func (e Expr) Coeff(v string) int64 {
	if i := e.index(v); i >= 0 {
		return e.Terms[i].Coeff
	}
	return 0
}

// IsConst reports whether e has no variable terms.
func (e Expr) IsConst() bool { return len(e.Terms) == 0 }

// IsZero reports whether e is the constant 0.
func (e Expr) IsZero() bool { return e.Const == 0 && len(e.Terms) == 0 }

// Uses reports whether variable v appears in e with a nonzero coefficient.
func (e Expr) Uses(v string) bool { return e.index(v) >= 0 }

// Vars returns the variables of e in sorted order.
func (e Expr) Vars() []string {
	if len(e.Terms) == 0 {
		return nil
	}
	vs := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		vs[i] = t.Var
	}
	return vs
}

// NumTerms returns the number of variables with nonzero coefficients.
func (e Expr) NumTerms() int { return len(e.Terms) }

// combine returns the terms of a + k·b without a's term at index skip (-1
// for none), in a fresh slice, or nil when none remain. It merges the two
// sorted lists, drops every coefficient that comes out zero (products and
// sums wrap, as int64 arithmetic does), and writes into neither operand.
func combine(a []Term, skip int, b []Term, k int64) []Term {
	out := make([]Term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == skip:
			i++
		case j == len(b) || (i < len(a) && a[i].Var < b[j].Var):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].Var < a[i].Var:
			if c := k * b[j].Coeff; c != 0 {
				out = append(out, Term{Var: b[j].Var, Coeff: c})
			}
			j++
		default:
			if c := a[i].Coeff + k*b[j].Coeff; c != 0 {
				out = append(out, Term{Var: a[i].Var, Coeff: c})
			}
			i++
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	switch {
	case len(f.Terms) == 0:
		return Expr{Const: e.Const + f.Const, Terms: e.Terms}
	case len(e.Terms) == 0:
		return Expr{Const: e.Const + f.Const, Terms: f.Terms}
	}
	return Expr{Const: e.Const + f.Const, Terms: combine(e.Terms, -1, f.Terms, 1)}
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr {
	if len(f.Terms) == 0 {
		return Expr{Const: e.Const - f.Const, Terms: e.Terms}
	}
	return Expr{Const: e.Const - f.Const, Terms: combine(e.Terms, -1, f.Terms, -1)}
}

// Neg returns -e.
func (e Expr) Neg() Expr { return Expr{}.Sub(e) }

// Scale returns k·e.
func (e Expr) Scale(k int64) Expr {
	switch k {
	case 0:
		return Expr{}
	case 1:
		return e
	}
	return Expr{Const: e.Const * k, Terms: combine(nil, -1, e.Terms, k)}
}

// AddConst returns e + c.
func (e Expr) AddConst(c int64) Expr {
	return Expr{Const: e.Const + c, Terms: e.Terms}
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
	i := e.index(v)
	if i < 0 {
		return e
	}
	c := e.Terms[i].Coeff
	return Expr{Const: e.Const + c*repl.Const, Terms: combine(e.Terms, i, repl.Terms, c)}
}

// Eval evaluates e under the given variable assignment. It reports ok=false
// if a variable of e is missing from env.
func (e Expr) Eval(env map[string]int64) (int64, bool) {
	val := e.Const
	for _, t := range e.Terms {
		x, ok := env[t.Var]
		if !ok {
			return 0, false
		}
		val += t.Coeff * x
	}
	return val, true
}

// Equal reports whether e and f denote the same affine function.
func (e Expr) Equal(f Expr) bool {
	if e.Const != f.Const || len(e.Terms) != len(f.Terms) {
		return false
	}
	for i, t := range e.Terms {
		if f.Terms[i] != t {
			return false
		}
	}
	return true
}

// AppendText appends e's rendering, e.g. "2*i - j + 10", to dst.
func (e Expr) AppendText(dst []byte) []byte {
	first := true
	for _, t := range e.Terms {
		dst = appendTerm(dst, t.Coeff, t.Var, first)
		first = false
	}
	if e.Const != 0 || first {
		dst = appendTerm(dst, e.Const, "", first)
	}
	return dst
}

// String renders e deterministically, e.g. "2*i - j + 10".
func (e Expr) String() string { return string(e.AppendText(nil)) }

// appendTerm appends the term c·v, or the constant c when v is empty, with
// the sign its position calls for. The magnitude is a uint64, so
// math.MinInt64 renders as itself.
func appendTerm(dst []byte, c int64, v string, first bool) []byte {
	m := uint64(c)
	switch {
	case c < 0 && first:
		dst = append(dst, '-')
		m = -m
	case c < 0:
		dst = append(dst, " - "...)
		m = -m
	case !first:
		dst = append(dst, " + "...)
	}
	if v == "" {
		return strconv.AppendUint(dst, m, 10)
	}
	if m != 1 {
		dst = strconv.AppendUint(dst, m, 10)
		dst = append(dst, '*')
	}
	return append(dst, v...)
}
