package dtest

import (
	"math/rand"
	"testing"

	"exactdep/internal/system"
)

// Cross-validation: on inputs where a cheap test applies, its verdict must
// agree with Fourier–Motzkin (which is exact whenever it answers without
// hitting its caps), and both must agree with brute force on small boxes.

func randBoxed(rng *rand.Rand, n int, box int64) []system.Constraint {
	var cs []system.Constraint
	for i := 0; i < n; i++ {
		lo := make([]int64, n)
		hi := make([]int64, n)
		lo[i], hi[i] = -1, 1
		cs = append(cs,
			system.Constraint{Coef: hi, C: box},
			system.Constraint{Coef: lo, C: box})
	}
	return cs
}

func TestSVPCAgreesWithFM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 1000; iter++ {
		n := 1 + rng.Intn(3)
		cs := randBoxed(rng, n, int64(rng.Intn(6)))
		// extra single-variable constraints
		for k := rng.Intn(4); k > 0; k-- {
			coef := make([]int64, n)
			coef[rng.Intn(n)] = int64(rng.Intn(7) - 3)
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(9) - 4)})
		}
		ts := sys(n, cs...)
		svpcRes, ok := SVPC(NewState(ts))
		if !ok {
			// a zero-coefficient extra constraint may have been dropped or
			// normalized; SVPC must apply to single-var systems
			t.Fatalf("iter %d: SVPC must apply", iter)
		}
		fmRes := FourierMotzkin(NewState(ts))
		if fmRes.Outcome == Unknown {
			continue
		}
		if svpcRes.Outcome != fmRes.Outcome {
			t.Fatalf("iter %d: SVPC %v vs FM %v on\n%v", iter, svpcRes.Outcome, fmRes.Outcome, cs)
		}
	}
}

func TestLoopResidueAgreesWithFM(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 1000; iter++ {
		n := 2 + rng.Intn(3)
		cs := randBoxed(rng, n, int64(rng.Intn(5)))
		// difference constraints t_i - t_j ≤ c
		for k := 1 + rng.Intn(5); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			coef := make([]int64, n)
			coef[i], coef[j] = 1, -1
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(7) - 3)})
		}
		ts := sys(n, cs...)
		lrRes, ok := LoopResidue(NewState(ts))
		if !ok {
			t.Fatalf("iter %d: residue must apply to difference systems", iter)
		}
		fmRes := FourierMotzkin(NewState(ts))
		if fmRes.Outcome == Unknown {
			continue
		}
		if lrRes.Outcome != fmRes.Outcome {
			t.Fatalf("iter %d: LoopResidue %v vs FM %v on\n%v", iter, lrRes.Outcome, fmRes.Outcome, cs)
		}
		if lrRes.Outcome == Dependent && !VerifyWitness(ts, lrRes.Witness) {
			t.Fatalf("iter %d: residue witness invalid: %v", iter, lrRes.Witness)
		}
	}
}

func TestAcyclicAgreesWithFM(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	decided := 0
	for iter := 0; iter < 1500; iter++ {
		n := 2 + rng.Intn(3)
		cs := randBoxed(rng, n, int64(rng.Intn(5)))
		// one-sided couplings: t_i ≤ t_j + t_k + c shapes (positive coeff on
		// one var only) tend to stay acyclic
		for k := 1 + rng.Intn(3); k > 0; k-- {
			coef := make([]int64, n)
			i := rng.Intn(n)
			coef[i] = 1 + int64(rng.Intn(2))
			for j := 0; j < n; j++ {
				if j != i && rng.Intn(2) == 0 {
					coef[j] = -(1 + int64(rng.Intn(2)))
				}
			}
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(9) - 2)})
		}
		ts := sys(n, cs...)
		acRes, _, ok := Acyclic(NewState(ts))
		if !ok {
			continue // cyclic: not applicable, nothing to validate
		}
		decided++
		fmRes := FourierMotzkin(NewState(ts))
		if fmRes.Outcome == Unknown {
			continue
		}
		if acRes.Outcome != fmRes.Outcome {
			t.Fatalf("iter %d: Acyclic %v vs FM %v on\n%v", iter, acRes.Outcome, fmRes.Outcome, cs)
		}
		if acRes.Outcome == Dependent && acRes.Witness != nil && !VerifyWitness(ts, acRes.Witness) {
			t.Fatalf("iter %d: acyclic witness invalid: %v", iter, acRes.Witness)
		}
	}
	if decided < 100 {
		t.Fatalf("too few acyclic-decidable samples (%d) — generator drifted", decided)
	}
}

// TestCascadeAgreesWithFMOnly cross-validates the two pipeline
// configurations: any verdict the cost-ordered cascade reaches must also be
// reached by Fourier–Motzkin running alone (FM is exact whenever it answers
// without hitting its caps), on a stream of mixed-shape random systems.
func TestCascadeAgreesWithFMOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	full := DefaultConfig().NewPipeline()
	fm := FMOnlyConfig().NewPipeline()
	agreed := 0
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(4)
		cs := randBoxed(rng, n, int64(rng.Intn(6)))
		for k := rng.Intn(5); k > 0; k-- {
			coef := make([]int64, n)
			for j := range coef {
				coef[j] = int64(rng.Intn(5) - 2)
			}
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(11) - 5)})
		}
		ts := sys(n, cs...)
		r := full.Run(ts)
		if r.Outcome == Unknown {
			continue
		}
		fr := fm.Run(ts)
		if fr.Outcome == Unknown { // FM hit its size caps
			continue
		}
		if r.Outcome != fr.Outcome {
			t.Fatalf("iter %d: cascade (%v) %v vs fm-only %v on\n%v", iter, r.Kind, r.Outcome, fr.Outcome, cs)
		}
		agreed++
	}
	if agreed < 1000 {
		t.Fatalf("only %d comparable samples — generator drifted", agreed)
	}
}

// TestFMAgreesWithBruteForce closes the loop: FM itself against
// enumeration on tightly boxed systems.
func TestFMAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 800; iter++ {
		n := 1 + rng.Intn(3)
		const box = 3
		cs := randBoxed(rng, n, box)
		for k := rng.Intn(4); k > 0; k-- {
			coef := make([]int64, n)
			for j := range coef {
				coef[j] = int64(rng.Intn(9) - 4)
			}
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(11) - 5)})
		}
		ts := sys(n, cs...)
		r := FourierMotzkin(NewState(ts))
		if r.Outcome == Unknown {
			continue
		}
		want := bruteForce(cs, n, box)
		if (r.Outcome == Dependent) != want {
			t.Fatalf("iter %d: FM %v, brute force %v on\n%v", iter, r.Outcome, want, cs)
		}
	}
}
