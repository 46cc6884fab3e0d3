package memo

import (
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/system"
)

// encoderProblems builds a spread of problem shapes: plain, offset, unused
// outer loop, triangular bounds, two-dimensional nest — enough to exercise
// variable dropping, level ranking, and bound encoding.
func encoderProblems(t testing.TB) []*system.Problem {
	return []*system.Problem{
		buildPair(t, []ir.Loop{loop("i", 1, 10)},
			ir.NewVar("i").AddConst(10), ir.NewVar("i")),
		buildPair(t, []ir.Loop{loop("i", 1, 100)},
			ir.NewVar("i").Scale(2), ir.NewVar("i").AddConst(1)),
		buildPair(t, []ir.Loop{loop("i", 1, 10), loop("j", 1, 10)},
			ir.NewVar("j").AddConst(10), ir.NewVar("j")),
		buildPair(t, []ir.Loop{
			loop("i", 1, 10),
			{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(10)},
		}, ir.NewVar("j"), ir.NewVar("j").AddConst(-1)),
		buildPair(t, []ir.Loop{loop("i", 1, 10), loop("j", 1, 20)},
			ir.NewVar("i").Add(ir.NewVar("j")), ir.NewVar("i").AddConst(5)),
	}
}

// TestEncoderMatchesOneShot pins a reused encoder to a one-shot one (a
// fresh Encoder per problem): same problems, same keys, for both schemes —
// one Encoder reused across all problems in sequence must not leak state
// between encodes through its buffers.
func TestEncoderMatchesOneShot(t *testing.T) {
	probs := encoderProblems(t)
	var e Encoder
	for _, improved := range []bool{false, true} {
		for round := 0; round < 2; round++ { // reused buffers on round 2
			for pi, p := range probs {
				if got, want := e.EncodeFull(p, improved), encodeFull(p, improved); !got.equal(want) {
					t.Errorf("problem %d improved=%v round %d: full key %v, want %v", pi, improved, round, got, want)
				}
				if got, want := e.EncodeEq(p, improved), encodeEq(p, improved); !got.equal(want) {
					t.Errorf("problem %d improved=%v round %d: eq key %v, want %v", pi, improved, round, got, want)
				}
			}
		}
	}
}

// TestEncoderBufferAliasing pins the documented aliasing contract: a full
// key survives a later EncodeEq on the same encoder (the analyzer encodes
// the full key, misses, encodes the eq key, then inserts under the full
// key), while a second EncodeFull invalidates the first.
func TestEncoderBufferAliasing(t *testing.T) {
	probs := encoderProblems(t)
	var e Encoder
	full := e.EncodeFull(probs[0], true)
	want := full.Clone()
	e.EncodeEq(probs[1], true)
	e.EncodeEq(probs[3], true)
	if !full.equal(want) {
		t.Fatalf("EncodeEq clobbered the live full key: %v, want %v", full, want)
	}
	if e.EncodeFull(probs[3], true).equal(want) {
		t.Fatal("test premise broken: distinct problems share a key")
	}
}

// TestEncoderCloneOutlivesScratch verifies Clone detaches a key from the
// encoder's buffers.
func TestEncoderCloneOutlivesScratch(t *testing.T) {
	probs := encoderProblems(t)
	var e Encoder
	k := e.EncodeFull(probs[0], true).Clone()
	want := encodeFull(probs[0], true)
	for _, p := range probs {
		e.EncodeFull(p, true)
	}
	if !k.equal(want) {
		t.Fatalf("cloned key changed under encoder reuse: %v, want %v", k, want)
	}
	if Key(nil).Clone() != nil {
		t.Fatal("Clone of nil key must stay nil")
	}
}
