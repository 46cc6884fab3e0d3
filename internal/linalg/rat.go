package linalg

import "fmt"

// Rat is an exact rational on checked int64, used by the Fourier–Motzkin
// back-substitution. The zero value is 0/1. Operations return ErrOverflow
// rather than wrapping; the dependence tests treat that as inapplicability.
type Rat struct {
	Num, Den int64 // Den > 0, gcd(Num, Den) = 1
}

// NewRat returns num/den in lowest terms. den must be nonzero.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("linalg: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	// den is nonzero, so the gcd fits (2^63 needs both operands in {0, MinInt64}).
	if g, _ := GCD(num, den); g > 1 {
		num /= g
		den /= g
	}
	return Rat{Num: num, Den: den}
}

// RatInt returns the rational v/1.
func RatInt(v int64) Rat { return Rat{Num: v, Den: 1} }

// IsZero reports whether r is zero.
func (r Rat) IsZero() bool { return r.Num == 0 }

// Sign returns -1, 0, or 1.
func (r Rat) Sign() int {
	switch {
	case r.Num < 0:
		return -1
	case r.Num > 0:
		return 1
	default:
		return 0
	}
}

// Add returns r+s.
func (r Rat) Add(s Rat) (Rat, error) {
	// r.Num/r.Den + s.Num/s.Den over lcm denominator
	g, _ := GCD(r.Den, s.Den) // a positive denominator keeps the gcd in range
	if g == 0 {
		g = 1
	}
	db := s.Den / g
	n1, err := MulChecked(r.Num, db)
	if err != nil {
		return Rat{}, err
	}
	n2, err := MulChecked(s.Num, r.Den/g)
	if err != nil {
		return Rat{}, err
	}
	num, err := AddChecked(n1, n2)
	if err != nil {
		return Rat{}, err
	}
	den, err := MulChecked(r.Den, db)
	if err != nil {
		return Rat{}, err
	}
	return NewRat(num, den), nil
}

// Sub returns r-s.
func (r Rat) Sub(s Rat) (Rat, error) { return r.Add(Rat{Num: -s.Num, Den: s.Den}) }

// Mul returns r·s.
func (r Rat) Mul(s Rat) (Rat, error) {
	// cross-reduce first to keep magnitudes small
	// A positive denominator keeps each gcd in range.
	g1, _ := GCD(r.Num, s.Den)
	g2, _ := GCD(s.Num, r.Den)
	if g1 == 0 {
		g1 = 1
	}
	if g2 == 0 {
		g2 = 1
	}
	num, err := MulChecked(r.Num/g1, s.Num/g2)
	if err != nil {
		return Rat{}, err
	}
	den, err := MulChecked(r.Den/g2, s.Den/g1)
	if err != nil {
		return Rat{}, err
	}
	return NewRat(num, den), nil
}

// Div returns r/s for s ≠ 0.
func (r Rat) Div(s Rat) (Rat, error) {
	if s.Num == 0 {
		return Rat{}, fmt.Errorf("linalg: division by zero rational")
	}
	inv := Rat{Num: s.Den, Den: s.Num}
	if inv.Den < 0 {
		inv.Num, inv.Den = -inv.Num, -inv.Den
	}
	return r.Mul(inv)
}

// Cmp compares r and s: -1 if r<s, 0 if equal, 1 if r>s.
func (r Rat) Cmp(s Rat) (int, error) {
	d, err := r.Sub(s)
	if err != nil {
		return 0, err
	}
	return d.Sign(), nil
}

// Floor returns ⌊r⌋.
func (r Rat) Floor() int64 { return FloorDiv(r.Num, r.Den) }

// Ceil returns ⌈r⌉.
func (r Rat) Ceil() int64 { return CeilDiv(r.Num, r.Den) }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den == 1 }

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	if r.Den == 1 {
		return fmt.Sprintf("%d", r.Num)
	}
	return fmt.Sprintf("%d/%d", r.Num, r.Den)
}
