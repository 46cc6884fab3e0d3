// Package refs enumerates candidate dependence pairs from a lowered unit:
// every pair of references to the same array in which at least one is a
// write (flow, anti, and output dependences), including a write paired with
// itself across iterations. Pairs whose subscripts are all constant on both
// sides — the paper's "Constant" column in Table 1, e.g. a[3] vs a[4] — are
// classified up front and never reach the dependence tests.
package refs

import (
	"exactdep/internal/ir"
)

// Class labels how a candidate pair is handled.
type Class int

const (
	// NeedsTest means the pair goes to the dependence analyzer.
	NeedsTest Class = iota
	// ConstEqual: all subscripts constant and equal — trivially dependent.
	ConstEqual
	// ConstDiffer: all subscripts constant and some dimension differs —
	// trivially independent.
	ConstDiffer
)

func (c Class) String() string {
	switch c {
	case ConstEqual:
		return "constant (dependent)"
	case ConstDiffer:
		return "constant (independent)"
	default:
		return "needs test"
	}
}

// Candidate is one enumerated pair with its classification.
type Candidate struct {
	Pair  ir.Pair
	Class Class
}

// Options controls pair enumeration.
type Options struct {
	// NoSelfPairs skips pairing a write with itself (the across-iteration
	// output dependence of a single reference). The experiment harness uses
	// this to count distinct-reference pairs the way the paper does.
	NoSelfPairs bool
}

// Pairs enumerates the candidate pairs of a unit in deterministic order,
// including write self-pairs.
func Pairs(u *ir.Unit) []Candidate { return PairsOpts(u, Options{}) }

// PairsOpts enumerates candidate pairs with explicit options.
func PairsOpts(u *ir.Unit, opts Options) []Candidate {
	// Only same-array sites pair, so chain each array's sites once: next[i]
	// is the next site after i on the same array, or -1. Site i then walks
	// only its own array's sites j >= i, and pairs come out in the same
	// (i, j) order as a scan over every pair of sites.
	next := make([]int, len(u.Sites))
	last := make(map[string]int, len(u.Sites))
	for i := len(u.Sites) - 1; i >= 0; i-- {
		arr := u.Sites[i].Ref.Array
		next[i] = -1
		if j, ok := last[arr]; ok {
			next[i] = j
		}
		last[arr] = i
	}
	// A first pass counts the pairs, so the result is allocated once.
	n := 0
	for i := range u.Sites {
		for j := i; j >= 0; j = next[j] {
			if pairable(&u.Sites[i], &u.Sites[j], i == j, opts) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Candidate, 0, n)
	for i := range u.Sites {
		a := &u.Sites[i]
		for j := i; j >= 0; j = next[j] {
			b := &u.Sites[j]
			if !pairable(a, b, i == j, opts) {
				continue
			}
			p := ir.Pair{
				A:       *a,
				B:       *b,
				Common:  commonPrefix(a.Loops, b.Loops),
				Symbols: u.Symbols,
				Label:   u.Name,
			}
			out = append(out, Candidate{Pair: p, Class: Classify(a.Ref, b.Ref)})
		}
	}
	return out
}

// pairable reports whether two sites of the same array form a candidate.
func pairable(a, b *ir.Site, self bool, opts Options) bool {
	if self && opts.NoSelfPairs {
		return false
	}
	if len(a.Ref.Subscripts) != len(b.Ref.Subscripts) {
		return false // inconsistent dimensionality: not comparable
	}
	// read-read pairs carry no dependence
	return a.Ref.Kind == ir.Write || b.Ref.Kind == ir.Write
}

// Classify detects all-constant subscript pairs.
func Classify(a, b ir.Ref) Class {
	equal := true
	for d := range a.Subscripts {
		sa, sb := a.Subscripts[d], b.Subscripts[d]
		if !sa.IsConst() || !sb.IsConst() {
			return NeedsTest
		}
		if sa.Const != sb.Const {
			equal = false
		}
	}
	if equal {
		return ConstEqual
	}
	return ConstDiffer
}

// commonPrefix counts the shared outermost loops of two stacks. Loops match
// when they are the same syntactic loop: same index and same bounds. (Two
// sibling loops that happen to reuse an index name and bounds would also
// match, which is conservative for hand-built units; the lowerer always
// copies one stack, so prefixes there are exact.)
func commonPrefix(a, b []ir.Loop) int {
	n := 0
	for n < len(a) && n < len(b) {
		if !sameLoop(a[n], b[n]) {
			break
		}
		n++
	}
	return n
}

func sameLoop(a, b ir.Loop) bool {
	if a.ID != 0 || b.ID != 0 {
		return a.ID == b.ID
	}
	if a.Index != b.Index || a.NoLower != b.NoLower || a.NoUpper != b.NoUpper {
		return false
	}
	if !a.NoLower && !a.Lower.Equal(b.Lower) {
		return false
	}
	if !a.NoUpper && !a.Upper.Equal(b.Upper) {
		return false
	}
	return true
}
