package dtest

import (
	"encoding/binary"
	"math"
	"testing"

	"exactdep/internal/system"
)

// fuzzExtremes are the int64 values at which the cascade's arithmetic can
// leave int64: its ends and the neighbourhood of 2^62, where a sum of two
// does.
var fuzzExtremes = [...]int64{
	math.MaxInt64, -math.MaxInt64, math.MinInt64,
	1 << 62, -(1 << 62), 1<<62 + 1, -(1<<62 + 1),
}

// fuzzSystem decodes a system of 1–3 variables and up to 6 rows. The first
// byte picks the variable count and the second the row count; each row is
// its coefficients, then its constant. A value is one selector byte: most
// selectors are a small number in [-8, 8], some pick one of fuzzExtremes,
// and 0xff takes the next 8 bytes as a raw little-endian int64. Missing
// bytes read as 0.
func fuzzSystem(data []byte) *system.TSystem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func() int64 {
		switch k := next(); {
		case k < 0xc0:
			return int64(k%17) - 8
		case k < 0xff:
			return fuzzExtremes[int(k)%len(fuzzExtremes)]
		}
		var raw [8]byte
		for i := range raw {
			raw[i] = next()
		}
		return int64(binary.LittleEndian.Uint64(raw[:]))
	}
	n := 1 + int(next()%3)
	rows := int(next() % 7)
	ts := &system.TSystem{NumT: n}
	for r := 0; r < rows; r++ {
		coef := make([]int64, n)
		for j := range coef {
			coef[j] = value()
		}
		ts.Cons = append(ts.Cons, system.Constraint{Coef: coef, C: value()})
	}
	return ts
}

// fuzzEncode is fuzzSystem's inverse for seeds: it writes every value raw.
func fuzzEncode(n int, rows ...system.Constraint) []byte {
	out := []byte{byte(n - 1), byte(len(rows))}
	raw := func(v int64) {
		out = append(out, 0xff)
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	for _, c := range rows {
		for _, a := range c.Coef {
			raw(a)
		}
		raw(c.C)
	}
	return out
}

// FuzzCascadeExact checks the cascade on small systems with coefficients
// and constants at the int64 extremes: it never panics, the paper's
// cascade and Fourier–Motzkin alone never disagree on an exact verdict,
// and every exact Dependent from either carries a witness that satisfies
// the system exactly.
func FuzzCascadeExact(f *testing.F) {
	m := int64(1)<<62 + 1
	big := int64(math.MaxInt64 / 2)
	for _, seed := range [][]byte{
		// A negative cycle of weight -2^63-2 (Loop Residue's relaxation).
		fuzzEncode(2, cons(-m, 1, -1), cons(-m, -1, 1)),
		// t1 ≥ 2^63 (classification).
		fuzzEncode(1, cons(math.MinInt64, -1), cons(0, 1)),
		// A range for t1 wider than MaxInt64 (the midpoint).
		fuzzEncode(2, cons(0, 1, -1), cons(0, -1, -1), cons(-(1<<62), 0, -1), cons(math.MaxInt64-1, 0, 1)),
		// A witness whose row sum wraps to 0.
		fuzzEncode(2, cons(0, 1, 2), cons(-(1<<62), 0, -1), cons(1<<62+10, 0, 1)),
		// Acyclic's substitution reaching t1 ≥ 2^63.
		fuzzEncode(2, cons(math.MinInt64+5, -1, -1), cons(0, 1, -1), cons(-5, 0, 1)),
		// An overflowing Fourier–Motzkin combination.
		fuzzEncode(2, cons(1, big, big-1), cons(-3, -(big-3), -(big-5)), cons(10, 1, 0), cons(0, -1, 0)),
		// A witness Acyclic leaves unreplayed into a later stage's.
		fuzzEncode(3, cons(0, -5, -5, 0), cons(-5, 0, 1, 1), cons(0, 1, 1, 0)),
		// Acyclic's replay dividing MinInt64 by -1: t1 ≥ 2^63 + 6t2.
		fuzzEncode(2, cons(math.MinInt64, -1, 6), cons(-8, -8, -8)),
		// Acyclic's replay into Loop Residue's witness leaving int64.
		fuzzEncode(3, cons(0, 1, 2, 0), cons(0, 0, 1, -1), cons(0, 0, -1, 1), cons(-(1<<62), 0, -1, 0), cons(1<<62+10, 0, 1, 0)),
	} {
		f.Add(seed)
	}
	full, fm := DefaultConfig().NewPipeline(), FMOnlyConfig().NewPipeline()
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzSystem(data)
		a := full.Run(ts)
		b := fm.Run(ts)
		if a.Exact && b.Exact && a.Outcome != b.Outcome {
			t.Fatalf("cascade %v, Fourier-Motzkin alone %v on %v", a, b, ts.Cons)
		}
		if a.Exact && a.Outcome == Dependent && !VerifyWitness(ts, a.Witness) {
			t.Fatalf("cascade: %v with invalid witness %v on %v", a, a.Witness, ts.Cons)
		}
		if b.Exact && b.Outcome == Dependent && !VerifyWitness(ts, b.Witness) {
			t.Fatalf("Fourier-Motzkin alone: %v with invalid witness %v on %v", b, b.Witness, ts.Cons)
		}
	})
}
