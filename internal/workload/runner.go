package workload

import (
	"context"
	"fmt"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

// RunnerOptions configures one suite-runner invocation.
type RunnerOptions struct {
	// Core configures the analyzer (memoization, direction vectors, …).
	Core core.Options
	// Symbolic appends the Table 7 symbolic cases to each program.
	Symbolic bool
	// Workers is the fan-out of the corpus driver and the analyzer
	// (core.AnalyzeAll), mapped by core.PipelineWorkers: 0 or 1 analyzes on
	// the calling goroutine, N > 1 shares the analyzer's sharded memo
	// tables across N goroutines, negative means GOMAXPROCS. The runner's
	// units are parsed in memory before the run, so unlike a Dir or Files
	// corpus no read+parse pool runs at one worker either. Results and
	// verdict tallies are identical either way; only wall-clock changes.
	Workers int
}

// Run analyzes one synthetic program with a fresh analyzer and returns the
// analyzer with its counters.
func Run(s Spec, ro RunnerOptions) (*core.Analyzer, error) {
	a := core.New(ro.Core)
	if _, err := RunInto(a, s, ro); err != nil {
		return nil, err
	}
	return a, nil
}

// RunInto runs one synthetic program through an existing analyzer (sharing
// its memo tables, as a compiler would across a session) and returns the
// per-pair results in candidate order. It is a corpus-of-one run of the
// incremental driver with no store attached: the driver batches the unit
// straight through the analyzer, on the calling goroutine at Workers <= 1,
// so counters are identical to a direct AnalyzeCandidate loop.
func RunInto(a *core.Analyzer, s Spec, ro RunnerOptions) ([]core.Result, error) {
	cands, err := Candidates(s, ro.Symbolic)
	if err != nil {
		return nil, err
	}
	d := corpus.NewDriverOver(a, core.PipelineWorkers(ro.Workers))
	urs, err := d.RunAll(context.Background(), corpus.Mem{{Name: s.Name, Cands: cands}})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return urs[0].Results, nil
}

// RunSuite runs every program of the suite through one analyzer (shared
// memo tables, one compiler session) and returns it with merged counters.
// The suite is a thirteen-unit corpus: one driver run.
func RunSuite(ro RunnerOptions) (*core.Analyzer, error) {
	src, err := SuiteSource(ro.Symbolic)
	if err != nil {
		return nil, err
	}
	d := corpus.NewDriver(ro.Core, core.PipelineWorkers(ro.Workers))
	if err := d.Run(context.Background(), src, nil); err != nil {
		return nil, err
	}
	return d.Analyzer(), nil
}

// Analyze runs one synthetic program through the full pipeline (parse →
// prepass → pair extraction → analyzer) and returns the analyzer with its
// counters. Pairs are enumerated without self-pairs: the harness counts
// distinct-reference pairs, the paper's notion of a dependence-test call.
func Analyze(s Spec, opts core.Options, symbolic bool) (*core.Analyzer, error) {
	return Run(s, RunnerOptions{Core: opts, Symbolic: symbolic})
}

// AnalyzeInto runs one synthetic program through an existing analyzer
// (sharing its memo tables, as a compiler would across a session).
func AnalyzeInto(a *core.Analyzer, s Spec, symbolic bool) error {
	_, err := RunInto(a, s, RunnerOptions{Symbolic: symbolic})
	return err
}

// Candidates parses and lowers one synthetic program and enumerates its
// candidate pairs (without self-pairs — the paper's counting unit).
func Candidates(s Spec, symbolic bool) ([]refs.Candidate, error) {
	src := Source(s, symbolic)
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	unit := opt.Lower(prog)
	if len(unit.Warnings) > 0 {
		return nil, fmt.Errorf("workload %s: unexpected lowering warnings: %v", s.Name, unit.Warnings)
	}
	return refs.PairsOpts(unit, refs.Options{NoSelfPairs: true}), nil
}
