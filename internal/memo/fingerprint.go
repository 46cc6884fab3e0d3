package memo

import "fmt"

// Fingerprint is a 128-bit structural digest of a whole loop nest's
// dependence input — the corpus layer's whole-nest extension of the §5
// canonical-key discipline. Where a Key canonicalizes one dependence
// problem for the memo tables, a Fingerprint folds every candidate system
// of a nest (classes, common depths, subscript equations, loop bounds,
// symbols) into a fixed-size value the incremental driver can diff against
// a persistent verdict store without re-running any test.
//
// Two independent 64-bit accumulator chains keep the collision probability
// negligible at corpus scale (~2^-128 per pair of distinct nests); the
// driver additionally cross-checks the stored pair count on a hit.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the zero fingerprint (no data folded).
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// FPHasher accumulates a Fingerprint from a stream of integers and strings.
// Call Reset before each fold; like the Encoder it is scratch-state, not
// safe for concurrent use — give each driver its own. The fold runs once
// per unit per corpus run, so the hot path is branch-free: no lazy seeding.
//
// The two chains mix every input through the same splitmix64-style
// finalizer the memo tables index with, seeded differently, so a single
// flipped coefficient flips about half the bits of both words.
type FPHasher struct {
	hi, lo uint64
}

// Fingerprint chain seeds (odd constants, arbitrary but fixed: they are
// baked into persisted stores, so changing them invalidates every store).
// fpStrSeed/fpStrPrime are the FNV-1a offset basis and prime, used for the
// one-pass string fold.
const (
	fpSeedHi   = 0x9E3779B97F4A7C15
	fpSeedLo   = 0xC2B2AE3D27D4EB4F
	fpStrSeed  = 0xCBF29CE484222325
	fpStrPrime = 0x00000100000001B3
)

// Reset returns the hasher to its seed state.
func (h *FPHasher) Reset() { h.hi, h.lo = fpSeedHi, fpSeedLo }

// AddInt folds one integer into both chains. The hi chain re-mixes per
// input (splitmix64); the lo chain is a multiply-accumulate polynomial
// hash, one multiply per input — independence of the two recurrences is
// what buys 128-bit strength at three multiplies per integer.
func (h *FPHasher) AddInt(v int64) {
	x := uint64(v)
	h.hi = mix(h.hi ^ (x + fpSeedHi))
	h.lo = h.lo*fpStrPrime + x
}

// strHash is a one-pass FNV-1a fold of s.
func strHash(s string) uint64 {
	acc := uint64(fpStrSeed)
	for i := 0; i < len(s); i++ {
		acc = (acc ^ uint64(s[i])) * fpStrPrime
	}
	return acc
}

// AddString folds a string: its length plus a one-pass FNV-1a digest, so
// the cost is one multiply per byte and two chain steps regardless of
// length. (An FNV collision between two identifiers would have to collide
// at equal lengths to go unnoticed — and the corpus driver additionally
// cross-checks stored pair counts.)
func (h *FPHasher) AddString(s string) {
	h.AddInt(int64(len(s)))
	h.AddInt(int64(strHash(s)))
}

// AddTerm folds one name → coefficient binding commutatively (by addition
// into both chains), for expression term maps whose iteration order is
// nondeterministic. Seal the collection with a final AddInt of its size so
// {x:1} followed by one integer cannot alias {x:1, y:...} shapes.
func (h *FPHasher) AddTerm(name string, coef int64) {
	t := mix(strHash(name) ^ uint64(coef)*fpSeedLo)
	h.hi += t
	h.lo += t * fpSeedHi // odd multiplier: bijective, decorrelates the chains
}

// Sum returns the accumulated fingerprint (the hasher keeps its state, so
// callers Reset between units).
func (h *FPHasher) Sum() Fingerprint {
	return Fingerprint{Hi: mix(h.hi), Lo: mix(h.lo)}
}
