package core_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"exactdep/internal/core"
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
