package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
)

// The correctness gate. Each distinct program's reference is computed once,
// untimed, under the fm-only cascade with memo off, one worker and no
// store: a configuration that bypasses the special-case tests, every memo
// table, the store, the pipeline and the server. Every op's output must
// equal it byte for byte in canonical form (corpus.AppendCanonical, or
// wire.Canonical for responses, which renders the same bytes).

// referenceOptions turns the measured configuration into the reference one.
func referenceOptions(o core.Options) core.Options {
	o.Cascade = "fm-only"
	o.Memoize, o.ImprovedMemo, o.SymmetricMemo = false, false, false
	o.Workers, o.StorePath, o.TimeCascade = 1, "", false
	return o
}

type gate struct {
	opts core.Options
	mu   sync.Mutex
	refs map[[32]byte][]byte // programKey → canonical reference bytes
}

func newGate(measured core.Options) *gate {
	return &gate{opts: referenceOptions(measured), refs: map[[32]byte][]byte{}}
}

func programKey(p program) [32]byte {
	h := sha256.New()
	h.Write([]byte(p.Name))
	h.Write([]byte{0})
	h.Write([]byte(p.Src))
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// compute fills in the references of progs not yet known, one serial
// reference driver per program, spread over the host's CPUs.
func (g *gate) compute(progs []program) error {
	var todo []program
	seen := map[[32]byte]bool{}
	g.mu.Lock()
	for _, p := range progs {
		k := programKey(p)
		if _, ok := g.refs[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, p)
		}
	}
	g.mu.Unlock()
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int, len(todo)) // every index queued up front
	for i := range todo {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b, err := g.referenceOf(todo[i])
				if err != nil {
					errs[i] = err
					continue
				}
				g.mu.Lock()
				g.refs[programKey(todo[i])] = b
				g.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *gate) referenceOf(p program) ([]byte, error) {
	u, err := corpus.FromSource(p.Name, p.Src)
	if err != nil {
		return nil, err
	}
	return corpus.NewDriver(g.opts, 1).Canonical(context.Background(), corpus.Mem{u})
}

// expect is the canonical rendering a correct run gives for progs, in
// order. Every program's reference must have been computed.
func (g *gate) expect(progs []program) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	var b []byte
	for _, p := range progs {
		ref, ok := g.refs[programKey(p)]
		if !ok {
			panic("reference not computed for " + p.Name)
		}
		b = append(b, ref...)
	}
	return b
}

// output is what the gate keeps of one op's result: the digest of its
// canonical bytes and its pair verdict counts.
type output struct {
	digest [32]byte
	pairs  int
	exact  int
}

func summarize(urs []corpus.UnitResult) output {
	var buf []byte
	var o output
	for i := range urs {
		buf = corpus.AppendCanonical(buf, &urs[i])
		for j := range urs[i].Results {
			o.pairs++
			if urs[i].Results[j].Exact {
				o.exact++
			}
		}
	}
	o.digest = sha256.Sum256(buf)
	return o
}

// matches reports whether an op's output equals the expected bytes.
func (o output) matches(expected []byte) bool {
	return o.digest == sha256.Sum256(expected)
}

// diffAt is the first byte offset where two renderings differ, for the
// failure message.
func diffAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) == len(b) {
		return -1
	}
	return n
}

// Pinned references. A change to lang, opt or refs that altered the
// measured path and the reference path alike would pass the per-op gate;
// the digest of the default seed's reference, committed here, catches it.
// Each run recomputes that digest for its workload's base programs.
const defaultSeed = 1

var pinnedDigests = map[string]string{
	"corpus-edit": "8f8236bfaf0cde37cf81cbe275162eadaf92649de0495151d72487ad9074622f",
	"corpus-cold": "2e49385a84b650830df08bd4ec723cccb94a9f7f90e0169cdeeceb678a91911a",
	"serve-mixed": "6c1cff446bce2c669285dd944ae400d66954068e8916abc44219d3a79d4829c3",
}

// checkPinned recomputes the default seed's reference digest for a
// workload and compares it with the committed one.
func checkPinned(g *gate, workloadName string, base []program) error {
	if err := g.compute(base); err != nil {
		return err
	}
	sum := sha256.Sum256(g.expect(base))
	got := hex.EncodeToString(sum[:])
	if want := pinnedDigests[workloadName]; got != want {
		return fmt.Errorf("reference digest for %s at seed %d is %s, committed %s: the analysis of the generated programs changed", workloadName, defaultSeed, got, want)
	}
	return nil
}

// firstMismatch explains a failed comparison.
func firstMismatch(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := diffAt(got, want)
	lo := max(i-40, 0)
	return fmt.Sprintf("first difference at byte %d: got %q, want %q", i, clip(got, lo, i+40), clip(want, lo, i+40))
}

func clip(b []byte, lo, hi int) []byte {
	return b[min(lo, len(b)):min(hi, len(b))]
}
