package ir

import "fmt"

// Loop is one level of a normalized loop nest: for Index = Lower to Upper
// with unit step. Bounds are affine in outer loop indices and symbolic
// variables. A nil bound (signalled by Unbounded) means the bound is
// unknown, as for the paper's symbolic "read(n)" loops.
type Loop struct {
	Index string
	Lower Expr
	Upper Expr
	// NoLower/NoUpper mark a missing (symbolic, unconstrained) bound.
	NoLower bool
	NoUpper bool
	// ID distinguishes distinct syntactic loops that happen to share an
	// index name and bounds (sibling loops). 0 means "untagged"; comparison
	// then falls back to structure.
	ID int
}

// String renders the loop header.
func (l Loop) String() string {
	lo, hi := l.Lower.String(), l.Upper.String()
	if l.NoLower {
		lo = "?"
	}
	if l.NoUpper {
		hi = "?"
	}
	return fmt.Sprintf("for %s = %s to %s", l.Index, lo, hi)
}

// RefKind distinguishes reads from writes.
type RefKind int

const (
	Read RefKind = iota
	Write
)

func (k RefKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Ref is a single array reference a[f1][f2]... inside a loop nest.
type Ref struct {
	Array string
	// Subscripts are affine in the enclosing loop indices and symbols.
	Subscripts []Expr
	Kind       RefKind
	// Depth is the number of enclosing loops of the ref within its nest.
	Depth int
	// Stmt identifies the statement the reference belongs to (position in
	// the nest body, used only for reporting).
	Stmt int
}

// AppendText appends the reference's rendering, e.g. "a[i + 1][j] (write)",
// to dst.
func (r Ref) AppendText(dst []byte) []byte {
	dst = append(dst, r.Array...)
	for _, s := range r.Subscripts {
		dst = append(s.AppendText(append(dst, '[')), ']')
	}
	dst = append(append(dst, " ("...), r.Kind.String()...)
	return append(dst, ')')
}

// String renders the reference, e.g. "a[i + 1][j] (write)".
func (r Ref) String() string { return string(r.AppendText(nil)) }

// Nest is a perfect or imperfect loop nest flattened to the loops enclosing
// each reference. Loops[0] is outermost. Refs carry their own Depth, so a
// reference nested under only the first k loops has Depth k.
type Nest struct {
	Loops []Loop
	Refs  []Ref
	// Symbols are loop-invariant unknowns referenced by bounds or
	// subscripts (paper §8). They carry no constraints.
	Symbols []string
	// Label names the nest for reporting (e.g. source position).
	Label string
}

// LoopsFor returns the loops enclosing ref r (its first Depth loops).
func (n *Nest) LoopsFor(r Ref) []Loop {
	d := r.Depth
	if d > len(n.Loops) {
		d = len(n.Loops)
	}
	return n.Loops[:d]
}

// CommonDepth returns the number of loops shared by two references of the
// nest (the shorter of the two depths; a nest shares a single loop stack).
func (n *Nest) CommonDepth(a, b Ref) int {
	d := a.Depth
	if b.Depth < d {
		d = b.Depth
	}
	if d > len(n.Loops) {
		d = len(n.Loops)
	}
	return d
}

// Site is one array reference together with its own stack of enclosing
// loops (outermost first). Sites generalize tower-shaped nests to imperfect
// ones: two sites may share only a prefix of their stacks.
type Site struct {
	Loops []Loop
	Ref   Ref
}

// Pair is a candidate dependence pair: two references to the same array
// sharing the first Common enclosing loops. By convention A is the earlier
// reference in program order.
type Pair struct {
	A, B Site
	// Common is the number of loops shared by both stacks (a prefix).
	Common int
	// Symbols are the loop-invariant unknowns in scope (paper §8).
	Symbols []string
	// Label names the pair's origin for reporting.
	Label string
}

// String renders the pair for reporting.
func (p Pair) String() string {
	return fmt.Sprintf("%s vs %s in %s", p.A.Ref, p.B.Ref, p.Label)
}

// Pair builds a dependence pair for two references of a tower-shaped nest.
func (n *Nest) Pair(a, b Ref) Pair {
	return Pair{
		A:       Site{Loops: n.LoopsFor(a), Ref: a},
		B:       Site{Loops: n.LoopsFor(b), Ref: b},
		Common:  n.CommonDepth(a, b),
		Symbols: n.Symbols,
		Label:   n.Label,
	}
}

// Unit is a lowered compilation unit: every array reference site of one
// program, plus the symbolic unknowns in scope.
type Unit struct {
	Name     string
	Sites    []Site
	Symbols  []string
	Warnings []string
	// ScalarCarried maps a loop's ID to the scalars whose values flow
	// across its iterations (read before written in the body, excluding
	// substituted induction variables). Such loops cannot run in parallel
	// regardless of array dependences.
	ScalarCarried map[int][]string
	// ScalarPrivate maps a loop's ID to the scalars assigned in its body
	// whose value does not flow across iterations: a parallelizing compiler
	// gives each iteration a private copy (including substituted induction
	// variables, which become closed forms).
	ScalarPrivate map[int][]string
}
