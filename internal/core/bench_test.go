package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/refs"
	"exactdep/internal/workload"
)

// largeMemoOpts is the direction-vector configuration the end-to-end
// benchmark measures.
var largeMemoOpts = core.Options{
	Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true,
}

// largeMemo is the analyzer a cold run of the 4,096-nest LargeCorpus
// leaves under largeMemoOpts, and its memo file. Built once per test
// binary.
var largeMemo = sync.OnceValues(func() (*core.Analyzer, []byte) {
	cands, err := workload.LargeCorpusCandidates(4096)
	if err != nil {
		panic(err)
	}
	a := core.New(largeMemoOpts)
	if _, err := a.AnalyzeAll(cands, 1); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := a.SaveMemo(&buf); err != nil {
		panic(err)
	}
	return a, buf.Bytes()
})

// BenchmarkMemoSave encodes the large analyzer's memo tables (SaveMemo to
// io.Discard).
func BenchmarkMemoSave(b *testing.B) {
	a, file := largeMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SaveMemo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.MemoLen()), "entries")
	b.ReportMetric(float64(len(file))/1024, "KB")
}

// BenchmarkMemoLoad decodes, validates and merges the large memo file into
// a fresh analyzer (LoadMemo).
func BenchmarkMemoLoad(b *testing.B) {
	a, file := largeMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.New(largeMemoOpts).LoadMemo(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.MemoLen()), "entries")
	b.ReportMetric(float64(len(file))/1024, "KB")
}

// BenchmarkAnalyzeAllWarmTable prices one warm AnalyzeAll call over 64
// LargeCorpus candidates (a fixed random sample, all hits after an untimed
// first call) against the size of the full table the call shares: 0, 10k,
// 100k and 1M synthetic entries, filled untimed, at one and two workers. A
// long-lived analyzer (depserve's, evicted only past 1<<20 entries) reaches
// the last row; the call must still cost its candidates, not the table.
func BenchmarkAnalyzeAllWarmTable(b *testing.B) {
	all, err := workload.LargeCorpusCandidates(4096)
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]refs.Candidate, 64)
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(all))[:len(cands)] {
		cands[i] = all[j]
	}
	for _, n := range []int{0, 10_000, 100_000, 1_000_000} {
		a := core.New(largeMemoOpts)
		core.FillMemo(a, n)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("entries=%d/workers=%d", n, w), func(b *testing.B) {
				if _, err := a.AnalyzeAll(cands, w); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.AnalyzeAll(cands, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
