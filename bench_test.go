package exactdep_test

// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the §7 per-test microbenchmarks. Absolute times differ from the
// paper's 1991 MIPS R2000 by orders of magnitude; the reproduced claims are
// the shapes: per-test cost ordering SVPC < Acyclic < Loop Residue <
// Fourier–Motzkin, memoization collapsing 5,679 tests to ~332, pruning
// collapsing ~12.5k direction tests to ~1k, and dependence testing being a
// tiny fraction of compilation.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"exactdep"
	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/harness"
	"exactdep/internal/ir"
	"exactdep/internal/refs"
	"exactdep/internal/system"
	"exactdep/internal/workload"
)

// suite runs the full 13-program workload under the given configuration.
func suite(b *testing.B, opts core.Options, symbolic bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, s := range workload.Programs() {
			if _, err := workload.Analyze(s, opts, symbolic); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1Suite: every test call, no memoization (Table 1).
func BenchmarkTable1Suite(b *testing.B) {
	suite(b, core.Options{}, false)
}

// BenchmarkTable2Memo: both memoization schemes (Table 2).
func BenchmarkTable2Memo(b *testing.B) {
	b.Run("simple", func(b *testing.B) {
		suite(b, core.Options{Memoize: true}, false)
	})
	b.Run("improved", func(b *testing.B) {
		suite(b, core.Options{Memoize: true, ImprovedMemo: true}, false)
	})
}

// BenchmarkTable3Unique: unique cases only (Table 3).
func BenchmarkTable3Unique(b *testing.B) {
	suite(b, core.Options{Memoize: true, ImprovedMemo: true}, false)
}

// BenchmarkTable4DirVecs: direction vectors without pruning (Table 4).
func BenchmarkTable4DirVecs(b *testing.B) {
	suite(b, core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true}, false)
}

// BenchmarkTable5Pruned: direction vectors with both prunings (Table 5).
func BenchmarkTable5Pruned(b *testing.B) {
	suite(b, core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
		PruneUnused: true, PruneDistance: true}, false)
}

// BenchmarkTable6Cost: the production configuration timed per program
// (Table 6's dependence-test cost column).
func BenchmarkTable6Cost(b *testing.B) {
	opts := core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
		PruneUnused: true, PruneDistance: true}
	for _, s := range workload.Programs() {
		cands, err := workload.Candidates(s, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.New(opts)
				for _, c := range cands {
					if _, err := a.AnalyzeCandidate(c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTable7Symbolic: Table 5's configuration plus symbolic cases.
func BenchmarkTable7Symbolic(b *testing.B) {
	suite(b, core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
		PruneUnused: true, PruneDistance: true}, true)
}

// BenchmarkConcurrentSuite: the concurrent driver (worker pool + sharded
// memoization, core.Analyzer.AnalyzeAll) over the whole suite's candidate
// pairs, serial vs fan-out. Pairs are independent up to the shared cache,
// so wall-clock should drop with workers on multi-core hardware while the
// results stay byte-identical — which is asserted here before timing.
func BenchmarkConcurrentSuite(b *testing.B) {
	opts := core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
		PruneUnused: true, PruneDistance: true}
	var all []refs.Candidate
	for _, s := range workload.Programs() {
		cs, err := workload.Candidates(s, false)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, cs...)
	}

	serial := core.New(opts)
	want, err := serial.AnalyzeAll(all, 1)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts[1:] {
		par := core.New(opts)
		got, err := par.AnalyzeAll(all, w)
		if err != nil {
			b.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			b.Fatalf("results with %d workers differ from the 1-worker run", w)
		}
	}

	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.New(opts)
				if _, err := a.AnalyzeAll(all, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeAllMemoHot: the steady-state memo path —
// a pre-warmed analyzer re-running the whole suite, so every non-constant
// pair is a cache hit (encode, shared-table probe, expand). Run with
// -benchmem: per-candidate allocations should be amortized noise (the
// result slice), not per-hit garbage.
func BenchmarkAnalyzeAllMemoHot(b *testing.B) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	var all []refs.Candidate
	for _, s := range workload.Programs() {
		cs, err := workload.Candidates(s, false)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, cs...)
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			a := core.New(opts)
			if _, err := a.AnalyzeAll(all, w); err != nil { // warm the tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AnalyzeAll(all, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeAllLargeCorpus: the concurrent driver on a very large
// synthetic corpus (thousands of nests, workload.LargeCorpus) with a cold
// analyzer per iteration, so the measured path is the contended one — cache
// misses, in-place sharded-table inserts, and singleflight dedup — rather
// than the memo-hot replay BenchmarkAnalyzeAllMemoHot isolates. Worker
// counts 1/2/4 (plus GOMAXPROCS when larger) chart the scaling curve. The
// dirvec set adds the end-to-end benchmark's measured options (direction
// vectors with unused-loop and distance pruning), which also fill the
// refinement (dir) table — the insert-heavy path of a cold corpus run.
func BenchmarkAnalyzeAllLargeCorpus(b *testing.B) {
	all, err := workload.LargeCorpusCandidates(4096)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, set := range []struct {
		prefix string
		opts   core.Options
	}{
		{"", core.Options{Memoize: true, ImprovedMemo: true}},
		{"dirvec/", core.Options{Memoize: true, ImprovedMemo: true,
			DirectionVectors: true, PruneUnused: true, PruneDistance: true}},
	} {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%sworkers=%d", set.prefix, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a := core.New(set.opts)
					if _, err := a.AnalyzeAll(all, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCorpusIncremental: the incremental corpus driver on the
// 4096-nest LargeCorpus — cold (empty store: fingerprint, solve, and fill)
// versus a 1%-dirty warm re-run (41 mutated nests re-solved, 4055 served
// from the filled store). Each warm iteration applies a distinct edit
// (delta is a running counter), so the store accumulates across iterations
// the way a live session's does and every iteration really is 1% dirty —
// the mutation itself is timed, because an IDE/CI re-analysis pays it too.
// The warm/cold ratio is the payoff of the corpus layer and is gated in
// benchcmp-gate.
func BenchmarkCorpusIncremental(b *testing.B) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	units, err := workload.LargeCorpusUnits(4096)
	if err != nil {
		b.Fatal(err)
	}
	dirtyIdx := make([]int, 41)
	for i := range dirtyIdx {
		dirtyIdx[i] = (i*97 + 5) % len(units)
	}
	seed := corpus.NewDriver(opts, 1)
	if err := seed.SetStore(corpus.NewStore(opts)); err != nil {
		b.Fatal(err)
	}
	if err := seed.Run(context.Background(), units, nil); err != nil {
		b.Fatal(err)
	}
	filled := seed.Store()
	var deltaSeq int64 // distinct per warm iteration, across sub-benchmarks

	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("cold/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := corpus.NewDriver(opts, w)
				if err := d.SetStore(corpus.NewStore(opts)); err != nil {
					b.Fatal(err)
				}
				if err := d.Run(context.Background(), units, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm_1pct/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deltaSeq++
				dirty := workload.MutateNests(units, dirtyIdx, deltaSeq)
				d := corpus.NewDriver(opts, w)
				if err := d.SetStore(filled); err != nil {
					b.Fatal(err)
				}
				if err := d.Run(context.Background(), dirty, nil); err != nil {
					b.Fatal(err)
				}
				if d.Stats.UnitsSolved != 41 {
					b.Fatalf("warm run re-solved %d units, want 41", d.Stats.UnitsSolved)
				}
			}
		})
	}
}

// writeLargeCorpusDir renders the 4096-nest LargeCorpus as one .loop file
// per program (32 files) under a temp dir — the disk-backed twin of
// LargeCorpusUnits for the pipeline benchmarks, where the front end pays
// read + parse per run the way an IDE/CI re-analysis does.
func writeLargeCorpusDir(b *testing.B, nests int) string {
	b.Helper()
	root := b.TempDir()
	for _, s := range workload.LargeCorpus(nests) {
		path := filepath.Join(root, s.Name+".loop")
		if err := os.WriteFile(path, []byte(workload.Source(s, false)), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return root
}

// BenchmarkCorpusPipeline: the end-to-end pipelined corpus path on the
// 4096-nest LargeCorpus, cold (empty store: load, fingerprint, solve, fill)
// and warm (filled store: the front end is the whole run), from both an
// in-memory source (units pre-built, fingerprints cached after the first
// pass) and a Dir source (32 files re-read every run: a cold run parses
// them all, a warm run serves each through the store's file index after a
// read and a digest). Worker counts 1/2/4/8 chart the pipeline's scaling;
// the warm Dir series is the headline of the file index, and the cold Dir
// series at one worker still parses on a GOMAXPROCS pool. Canonical-byte
// identity across these worker counts is pinned by
// TestPipelineCanonicalIdentity.
func BenchmarkCorpusPipeline(b *testing.B) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	const nests = 4096
	units, err := workload.LargeCorpusUnits(nests)
	if err != nil {
		b.Fatal(err)
	}
	sources := []struct {
		name string
		src  corpus.Source
	}{
		{"mem", units},
		{"dir", corpus.Dir(writeLargeCorpusDir(b, nests))},
	}
	for _, sc := range sources {
		// Seed the warm store once per source (unit granularity differs:
		// per-nest for mem, per-file for dir).
		seed := corpus.NewDriver(opts, 1)
		if err := seed.SetStore(corpus.NewStore(opts)); err != nil {
			b.Fatal(err)
		}
		if err := seed.Run(context.Background(), sc.src, nil); err != nil {
			b.Fatal(err)
		}
		filled := seed.Store()

		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("cold/%s/workers=%d", sc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := corpus.NewDriver(opts, w)
					if err := d.SetStore(corpus.NewStore(opts)); err != nil {
						b.Fatal(err)
					}
					if err := d.Run(context.Background(), sc.src, nil); err != nil {
						b.Fatal(err)
					}
					if d.Stats.UnitsReused != 0 {
						b.Fatalf("cold run reused %d units", d.Stats.UnitsReused)
					}
				}
			})
			b.Run(fmt.Sprintf("warm/%s/workers=%d", sc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := corpus.NewDriver(opts, w)
					if err := d.SetStore(filled); err != nil {
						b.Fatal(err)
					}
					if err := d.Run(context.Background(), sc.src, nil); err != nil {
						b.Fatal(err)
					}
					if d.Stats.UnitsSolved != 0 {
						b.Fatalf("warm run re-solved %d units", d.Stats.UnitsSolved)
					}
				}
			})
		}
	}
}

// BenchmarkServeBatch: the two depserve request models over the same burst
// of same-class requests, one suite program per request (the executor's
// unit of work) and one op per full burst, so the series divide cleanly.
// perjob builds a fresh storeless corpus driver per request, the model
// before the warm tier; warm replays the burst on one persistent driver
// whose memo tables survive between requests, resetting its counters per
// request as the executor does. The gap is the cross-request memo
// dividend; warm/workers=1 is gated in benchcmp-gate.
func BenchmarkServeBatch(b *testing.B) {
	opts := core.Options{DirectionVectors: true, PruneUnused: true,
		PruneDistance: true, Memoize: true, ImprovedMemo: true}
	suite, err := workload.SuiteSource(false)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("perjob/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for u := range suite {
					d := corpus.NewDriver(opts, w)
					if _, err := d.RunAll(context.Background(), suite[u:u+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("warm/workers=%d", w), func(b *testing.B) {
			d := corpus.NewDriver(opts, w)
			if _, err := d.RunAll(context.Background(), suite); err != nil { // warm the tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := range suite {
					d.Analyzer().ResetStats()
					if _, err := d.RunAll(context.Background(), suite[u:u+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAnalyzeFMHardBudgeted: the FM-hard adversarial suite under a
// starvation budget of two Fourier–Motzkin eliminations, a fresh analyzer
// per op — how fast the cascade degrades. Its Maybe count and per-reason
// trip counts are deterministic, so they are reported per op next to the
// timing: a change in what the budget layer decides shows in the recorded
// metrics, not only in ns/op.
func BenchmarkAnalyzeFMHardBudgeted(b *testing.B) {
	hard, err := workload.FMHardSuiteCandidates()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Memoize: true, ImprovedMemo: true,
		Budget: dtest.Budget{MaxFMEliminations: 2}}
	var a *core.Analyzer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a = core.New(opts)
		if _, err := a.AnalyzeAll(hard, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Stats.Maybe), "maybe/op")
	for t := dtest.TripReason(1); int(t) < dtest.NumTripReasons; t++ {
		if n := a.Stats.TripCount(t); n > 0 {
			b.ReportMetric(float64(n), t.String()+"-trips/op")
		}
	}
}

// BenchmarkFigure1Residue: the §3.4 residue-graph construction and
// negative-cycle check.
func BenchmarkFigure1Residue(b *testing.B) {
	h := harness.New(io.Discard, false)
	for i := 0; i < b.N; i++ {
		if err := h.Figure(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection7Baseline: the inexact baseline over the whole suite, for
// the accuracy/cost comparison of §7.
func BenchmarkSection7Baseline(b *testing.B) {
	var cands []refs.Candidate
	for _, s := range workload.Programs() {
		cs, err := workload.Candidates(s, false)
		if err != nil {
			b.Fatal(err)
		}
		cands = append(cands, cs...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := harness.New(io.Discard, false)
		_ = h
		_ = cands
		if err := h.Compare(); err != nil {
			b.Fatal(err)
		}
	}
}

// perTestProblem builds a representative t-space system that the named test
// decides, mirroring §7's per-test timing inputs.
func perTestProblem(b *testing.B, kind dtest.Kind) *system.TSystem {
	b.Helper()
	var src string
	switch kind {
	case dtest.KindSVPC:
		src = "for i = 1 to 100\n  a[i+3] = a[i]\nend\n"
	case dtest.KindAcyclic:
		src = "for i = 1 to 100\n  for j = i to 100\n    a[j+1] = a[j]\n  end\nend\n"
	case dtest.KindLoopResidue:
		src = "for i = 1 to 100\n  for j = i to i+5\n    a[j+1] = a[j]\n  end\nend\n"
	default:
		src = "for i = 1 to 100\n  for j = 2*i to 2*i+5\n    a[j+1] = a[j]\n  end\nend\n"
	}
	prog, err := exactdep.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	unit := exactdep.Lower(prog)
	var pair ir.Pair
	for _, c := range refs.PairsOpts(unit, refs.Options{NoSelfPairs: true}) {
		pair = c.Pair
	}
	prob, err := system.Build(pair)
	if err != nil {
		b.Fatal(err)
	}
	res, ts, err := system.Preprocess(prob)
	if err != nil || res != system.GCDDependent {
		b.Fatalf("preprocess: %v %v", res, err)
	}
	r, _ := dtest.Solve(ts.Clone())
	if r.Kind != kind {
		b.Fatalf("representative problem decided by %v, want %v", r.Kind, kind)
	}
	return ts
}

// benchCascade times the cascade on a problem decided by one test — the
// paper's §7 microbenchmark (0.1 / 0.5 / 0.9 / 3 ms on a 12-MIPS machine;
// the reproduced claim is the ordering). A persistent pipeline reuses its
// scratch across iterations, as the analyzer's workers do, so allocs/op is
// the steady-state figure (0 for the cheap tests).
func benchCascade(b *testing.B, kind dtest.Kind) {
	ts := perTestProblem(b, kind)
	p := dtest.DefaultConfig().NewPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := p.Run(ts); r.Kind != kind {
			b.Fatalf("decided by %v", r.Kind)
		}
	}
}

func BenchmarkSVPC(b *testing.B)           { benchCascade(b, dtest.KindSVPC) }
func BenchmarkAcyclic(b *testing.B)        { benchCascade(b, dtest.KindAcyclic) }
func BenchmarkLoopResidue(b *testing.B)    { benchCascade(b, dtest.KindLoopResidue) }
func BenchmarkFourierMotzkin(b *testing.B) { benchCascade(b, dtest.KindFourierMotzkin) }

// BenchmarkAblationCascadeVsFMOnly: design-choice ablation — the cascade
// against running the backup test alone on the SVPC-dominated workload,
// via the two pipeline configurations.
func BenchmarkAblationCascadeVsFMOnly(b *testing.B) {
	ts := perTestProblem(b, dtest.KindSVPC)
	b.Run("cascade", func(b *testing.B) {
		p := dtest.DefaultConfig().NewPipeline()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Run(ts)
		}
	})
	b.Run("fm-only", func(b *testing.B) {
		p := dtest.FMOnlyConfig().NewPipeline()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Run(ts)
		}
	})
}

// BenchmarkAblationMemo: memoization on/off over a single repetitive
// program (the paper's core efficiency claim).
func BenchmarkAblationMemo(b *testing.B) {
	s, ok := workload.ProgramByName("SR") // 1,290 cases, 14 unique
	if !ok {
		b.Fatal("SR missing")
	}
	cands, err := workload.Candidates(s, false)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts core.Options) {
		for i := 0; i < b.N; i++ {
			a := core.New(opts)
			for _, c := range cands {
				if _, err := a.AnalyzeCandidate(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, core.Options{}) })
	b.Run("on", func(b *testing.B) { run(b, core.Options{Memoize: true, ImprovedMemo: true}) })
}

// BenchmarkAblationPruning: direction-vector pruning on/off for one deep
// nest program (Tables 4 vs 5 in miniature).
func BenchmarkAblationPruning(b *testing.B) {
	s, ok := workload.ProgramByName("LG")
	if !ok {
		b.Fatal("LG missing")
	}
	cands, err := workload.Candidates(s, false)
	if err != nil {
		b.Fatal(err)
	}
	base := core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true}
	pruned := base
	pruned.PruneUnused = true
	pruned.PruneDistance = true
	run := func(b *testing.B, opts core.Options) {
		for i := 0; i < b.N; i++ {
			a := core.New(opts)
			for _, c := range cands {
				if _, err := a.AnalyzeCandidate(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("unpruned", func(b *testing.B) { run(b, base) })
	b.Run("pruned", func(b *testing.B) { run(b, pruned) })
}
