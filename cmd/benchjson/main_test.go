package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testdata/count3.txt is captured output of
//
//	go test -run '^$' -bench 'MemoEncode|RefinementDeep/.*/depth=3|FMHardBudgeted|AnalyzeAllMemoHot' \
//	    -benchmem -count 3 -benchtime 20x . ./internal/memo ./internal/depvec
//
// on a 2-CPU host: three packages, sub-benchmarks, the -2 suffix and
// b.ReportMetric units.
func TestParseCapturedOutput(t *testing.T) {
	f, err := os.Open("testdata/count3.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []record{
		// Samples 14331947, 14190995, 12998842 ns/op: the middle one.
		{Name: "analyze_all_memo_hot_workers_1", Samples: 3, Iterations: 20,
			NsPerOp: 14190995, BytesPerOp: 5769988, AllocsPerOp: 1367},
		// The median sample is the only one with 1385 allocs/op: B/op and
		// allocs/op come from it, not from another sample.
		{Name: "analyze_all_memo_hot_workers_4", Samples: 3, Iterations: 20,
			NsPerOp: 11375817, BytesPerOp: 5772184, AllocsPerOp: 1385},
		{Name: "analyze_fmhard_budgeted", Samples: 3, Iterations: 20,
			NsPerOp: 455995, BytesPerOp: 284504, AllocsPerOp: 1542,
			Metrics: map[string]float64{"fm-eliminations-trips/op": 16, "maybe/op": 16}},
		{Name: "memo_encode", Samples: 3, Iterations: 20, NsPerOp: 588.8},
		{Name: "refinement_deep_reference_depth_3", Samples: 3, Iterations: 20,
			NsPerOp: 397521, BytesPerOp: 306464, AllocsPerOp: 1474,
			Metrics: map[string]float64{"tests/op": 40}},
		{Name: "refinement_deep_trail_depth_3", Samples: 3, Iterations: 20,
			NsPerOp: 94761, BytesPerOp: 1328, AllocsPerOp: 16,
			Metrics: map[string]float64{"tests/op": 40}},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("records:\n got %+v\nwant %+v", recs, want)
	}
}

// TestParseEvenCount: with an even number of samples the lower middle one
// by ns/op is the record, whatever order the samples arrive in.
func TestParseEvenCount(t *testing.T) {
	in := `pkg: exactdep
BenchmarkX-2   	 10	 400 ns/op	 4 B/op	 4 allocs/op
BenchmarkX-2   	 10	 100 ns/op	 1 B/op	 1 allocs/op
BenchmarkX-2   	 10	 300 ns/op	 3 B/op	 3 allocs/op
BenchmarkX-2   	 10	 200 ns/op	 2 B/op	 2 allocs/op
PASS
`
	recs, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []record{{Name: "x", Samples: 4, Iterations: 10, NsPerOp: 200, BytesPerOp: 2, AllocsPerOp: 2}}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("got %+v, want %+v", recs, want)
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"failed benchmark", "pkg: p\nBenchmarkX-2 \t--- FAIL: BenchmarkX-2\n    x_test.go:9: boom\n"},
		{"failed package", "pkg: p\nBenchmarkX-2 \t 10\t 100 ns/op\nFAIL\tp\t0.1s\n"},
		{"build failure", "FAIL\tp [build failed]\n"},
		{"no benchmark lines", "goos: linux\npkg: p\nPASS\nok  \tp\t0.1s\n"},
		{"two raw names, one record", "pkg: p\nBenchmarkX \t 10\t 100 ns/op\nBenchmarkX-2 \t 10\t 100 ns/op\n"},
		{"same name in two packages", "pkg: p\nBenchmarkX-2 \t 10\t 100 ns/op\npkg: q\nBenchmarkX-2 \t 10\t 100 ns/op\n"},
		{"malformed line", "pkg: p\nBenchmarkX-2 \t 10\t 100\n"},
	} {
		if recs, err := parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted, got %+v", tc.name, recs)
		}
	}
}

// TestRecordNamesMatchBENCH_PR16 pins the naming rule: today's benchmarks,
// as go test prints them on a 2-CPU host, map onto every record name of
// the last baseline taken before the rule existed.
func TestRecordNamesMatchBENCH_PR16(t *testing.T) {
	raw := []string{
		"BenchmarkMemoEncode-2",
		"BenchmarkShardedLookupParallel-2",
		"BenchmarkAnalyzeAllMemoHot/workers=1-2",
		"BenchmarkAnalyzeAllMemoHot/workers=4-2",
		"BenchmarkAnalyzeAllLargeCorpus/workers=1-2",
		"BenchmarkAnalyzeAllLargeCorpus/workers=2-2",
		"BenchmarkAnalyzeAllLargeCorpus/workers=4-2",
		"BenchmarkCorpusIncremental/cold/workers=1-2",
		"BenchmarkCorpusIncremental/warm_1pct/workers=1-2",
		"BenchmarkCorpusIncremental/cold/workers=4-2",
		"BenchmarkCorpusIncremental/warm_1pct/workers=4-2",
		"BenchmarkCorpusPipeline/cold/mem/workers=1-2",
		"BenchmarkCorpusPipeline/warm/mem/workers=1-2",
		"BenchmarkCorpusPipeline/cold/mem/workers=2-2",
		"BenchmarkCorpusPipeline/warm/mem/workers=2-2",
		"BenchmarkCorpusPipeline/cold/mem/workers=4-2",
		"BenchmarkCorpusPipeline/warm/mem/workers=4-2",
		"BenchmarkCorpusPipeline/cold/mem/workers=8-2",
		"BenchmarkCorpusPipeline/warm/mem/workers=8-2",
		"BenchmarkCorpusPipeline/cold/dir/workers=1-2",
		"BenchmarkCorpusPipeline/warm/dir/workers=1-2",
		"BenchmarkCorpusPipeline/cold/dir/workers=2-2",
		"BenchmarkCorpusPipeline/warm/dir/workers=2-2",
		"BenchmarkCorpusPipeline/cold/dir/workers=4-2",
		"BenchmarkCorpusPipeline/warm/dir/workers=4-2",
		"BenchmarkCorpusPipeline/cold/dir/workers=8-2",
		"BenchmarkCorpusPipeline/warm/dir/workers=8-2",
		"BenchmarkServeBatch/perjob/workers=1-2",
		"BenchmarkServeBatch/warm/workers=1-2",
		"BenchmarkServeBatch/perjob/workers=4-2",
		"BenchmarkServeBatch/warm/workers=4-2",
		"BenchmarkAnalyzeFMHardBudgeted-2",
		"BenchmarkRefinementDeep/reference/depth=3-2",
		"BenchmarkRefinementDeep/trail/depth=3-2",
		"BenchmarkRefinementDeep/reference/depth=4-2",
		"BenchmarkRefinementDeep/trail/depth=4-2",
	}
	buf, err := os.ReadFile("../../BENCH_PR16.json")
	if err != nil {
		t.Fatal(err)
	}
	var d doc
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != len(raw) {
		t.Fatalf("BENCH_PR16.json has %d records, the table %d", len(d.Benchmarks), len(raw))
	}
	for i, r := range raw {
		if got, want := recordName(r), d.Benchmarks[i].Name; got != want {
			t.Errorf("recordName(%q) = %q, want %q", r, got, want)
		}
	}
	// Without the suffix (GOMAXPROCS=1) the name is the same.
	if got := recordName("BenchmarkAnalyzeAllMemoHot/workers=4"); got != "analyze_all_memo_hot_workers_4" {
		t.Errorf("unsuffixed name mapped to %q", got)
	}
}
