// Command depanalyze runs the exact dependence analyzer on a loop-language
// source file and prints a per-pair dependence report, direction vectors,
// and a loop-parallelization summary.
//
//	depanalyze [flags] file.loop      (or - for stdin)
//	depanalyze [flags] dir            (corpus: every *.loop under dir)
//	depanalyze [flags] a.loop b.loop  (corpus: the listed files)
//
// With a directory argument, or more than one file argument, depanalyze
// analyzes the inputs as one corpus: a single analyzer session with shared
// memo tables, one unit per file in deterministic order. The -store flag
// adds the persistent verdict store, so a re-run re-solves only the files
// whose dependence structure changed. The per-program renderers (-annotate,
// -dot, -distribute) and the parallelization summary need a single parsed
// program and are rejected in corpus mode; single-file behavior and exit
// codes are unchanged.
//
// Flags:
//
//	-vectors=false    skip direction/distance vectors
//	-memo             enable memoization (improved scheme)
//	-memo-file=path   persist the memo table across runs (implies -memo)
//	-store=path       corpus mode: persist the fingerprint → verdict store
//	                  across runs (incremental re-analysis)
//	-workers=N        analysis goroutines (default GOMAXPROCS; 1 = serial)
//	-cascade=full     cascade pipeline: full (cost-ordered) or fm-only
//	                  (Fourier–Motzkin alone, for cross-validation)
//	-budget-fm=N      per-pair cap on Fourier–Motzkin eliminations
//	-budget-nodes=N   per-pair cap on branch-and-bound nodes
//	-budget-cons=N    per-pair cap on derived constraints
//	-budget-ms=N      per-pair wall-clock deadline in milliseconds
//	-timeout=D        whole-run deadline (context.WithTimeout); remaining
//	                  pairs degrade to sound 'maybe' verdicts
//	-stats            print the analyzer counters (in corpus mode also the
//	                  per-stage pipeline timing)
//	-cpuprofile=path  write a CPU profile of the run (pprof format)
//	-memprofile=path  write a heap profile at exit (pprof format)
//	-memostats        print memo table occupancy, shard spread, L1/L2 hit
//	                  rates, and degraded-entry counts (implies -memo)
//	-parallel=false   skip the parallelization summary
//	-annotate         print the source with parallel loops marked 'parfor'
//	-dot              print the dependence graph in Graphviz dot form
//	-distribute       print the program with loops distributed by pi-blocks
//	-json             print results as the versioned wire document
//	                  (internal/wire AnalyzeResponse) the depserve service
//	                  returns, instead of the text report
//
// The flags compose: -workers, -cascade, and -memostats may be combined
// freely (and with the budget flags); -memostats and -memo-file imply
// -memo. Exit status is 0 on success, 1 on a runtime failure (unreadable
// file, source syntax error, analysis failure), and 2 on a usage error
// (bad flag, bad flag value, unknown cascade, negative budget).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"exactdep"
	"exactdep/internal/atomicfile"
	corpuspkg "exactdep/internal/corpus"
	"exactdep/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the flag matrix and
// exit codes are testable: 0 ok, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("depanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vectors := fs.Bool("vectors", true, "compute direction and distance vectors")
	memo := fs.Bool("memo", false, "memoize repeated dependence problems")
	memoFile := fs.String("memo-file", "", "persist the memo table across runs (implies -memo)")
	storeFile := fs.String("store", "", "corpus mode: persist the fingerprint → verdict store across runs")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "analysis worker goroutines (1 = serial)")
	cascade := fs.String("cascade", "full", "cascade pipeline: full (cost-ordered) or fm-only (cross-validation)")
	budgetFM := fs.Int("budget-fm", 0, "per-pair cap on Fourier-Motzkin eliminations (0 = unlimited)")
	budgetNodes := fs.Int("budget-nodes", 0, "per-pair cap on branch-and-bound nodes (0 = unlimited)")
	budgetCons := fs.Int("budget-cons", 0, "per-pair cap on derived constraints (0 = unlimited)")
	budgetMS := fs.Int("budget-ms", 0, "per-pair wall-clock budget in milliseconds (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "whole-run deadline; remaining pairs degrade to 'maybe' (0 = none)")
	showStats := fs.Bool("stats", false, "print analyzer statistics")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	memoStats := fs.Bool("memostats", false, "print memo occupancy, shard spread, L1/L2 hit rates, degraded entries (implies -memo)")
	par := fs.Bool("parallel", true, "print the loop-parallelization summary")
	annotate := fs.Bool("annotate", false, "print the source with parallel loops marked 'parfor'")
	dot := fs.Bool("dot", false, "print the statement dependence graph in Graphviz dot form")
	distribute := fs.Bool("distribute", false, "print the program with top-level loops distributed by pi-blocks")
	jsonOut := fs.Bool("json", false, "print the wire AnalyzeResponse JSON document instead of the text report")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: depanalyze [flags] file.loop|dir [file.loop ...]  (use - for stdin)")
		fs.Usage()
		return 2
	}
	if *memoFile != "" || *memoStats {
		*memo = true
	}

	// A directory argument or multiple file arguments select corpus mode.
	corpusMode := fs.NArg() > 1
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		if fi, err := os.Stat(fs.Arg(0)); err == nil && fi.IsDir() {
			corpusMode = true
		}
	}
	if !corpusMode && *storeFile != "" {
		fmt.Fprintln(stderr, "depanalyze: -store applies only to corpus mode (a directory or multiple files)")
		return 2
	}

	opts := exactdep.Options{
		DirectionVectors: *vectors,
		PruneUnused:      *vectors,
		PruneDistance:    *vectors,
		Memoize:          *memo,
		ImprovedMemo:     *memo,
		Cascade:          *cascade,
		Budget: exactdep.Budget{
			MaxFMEliminations: *budgetFM,
			MaxBranchNodes:    *budgetNodes,
			MaxConstraints:    *budgetCons,
			MaxDuration:       time.Duration(*budgetMS) * time.Millisecond,
		},
	}
	// Configuration errors (unknown cascade, negative budget) are usage
	// errors: report them before touching the input.
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 2
	}

	// Profiles cover everything from here on (parse, lowering, analysis,
	// rendering). An unwritable profile path is a runtime error, like any
	// other bad file argument; the deferred stop also writes the heap
	// profile and upgrades a late failure to exit 1.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *jsonOut && (*annotate || *dot || *distribute) {
		fmt.Fprintln(stderr, "depanalyze: -json replaces the text report; drop -annotate, -dot and -distribute")
		return 2
	}
	if corpusMode {
		if *annotate || *dot || *distribute {
			fmt.Fprintln(stderr, "depanalyze: -annotate, -dot and -distribute need a single program, not a corpus")
			return 2
		}
		return runCorpus(corpusConfig{
			args:      fs.Args(),
			opts:      opts,
			workers:   *workers,
			timeout:   *timeout,
			memoFile:  *memoFile,
			storeFile: *storeFile,
			stats:     *showStats,
			memoStats: *memoStats,
			jsonOut:   *jsonOut,
		}, stdout, stderr)
	}

	src, err := readSource(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}
	prog, err := exactdep.Parse(src)
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}
	unit := exactdep.Lower(prog)
	analyzer := exactdep.NewAnalyzer(opts)
	if *memoFile != "" {
		if f, err := os.Open(*memoFile); err == nil {
			loadErr := analyzer.LoadMemo(f)
			f.Close()
			if loadErr != nil {
				fmt.Fprintf(stderr, "depanalyze: %v\n", loadErr)
				return 1
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	results, err := analyzer.AnalyzeAllContext(ctx, exactdep.Pairs(unit), *workers)
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}
	report := &exactdep.Report{Unit: unit, Results: results, Stats: analyzer.Stats}
	if *memoFile != "" {
		if err := saveMemoFile(analyzer, *memoFile); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}

	if *jsonOut {
		name := fs.Arg(0)
		if name == "-" {
			name = "stdin"
		}
		u, err := corpuspkg.FromSource(name, src)
		if err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		var fp corpuspkg.Fingerprinter
		ur := exactdep.UnitResult{
			Name:        name,
			Fingerprint: u.Fingerprint(&fp),
			Results:     results,
			Cost:        corpuspkg.Summarize(results),
			Warnings:    unit.Warnings,
		}
		cs := exactdep.CorpusStats{Units: 1, UnitsSolved: 1, PairsSolved: len(results)}
		if err := writeWireJSON(stdout, []exactdep.UnitResult{ur}, cs, analyzer.Stats, opts); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		return 0
	}

	for _, w := range report.Unit.Warnings {
		fmt.Fprintf(stderr, "warning: %s\n", w)
	}
	for _, r := range report.Results {
		printResult(stdout, r)
	}

	if *par {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "parallelization:")
		fmt.Fprint(stdout, exactdep.ParallelizeResults(report.Unit, report.Results))
	}
	if *annotate {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "annotated source:")
		fmt.Fprint(stdout, exactdep.AnnotateSource(prog, exactdep.ParallelizeResults(report.Unit, report.Results)))
	}
	if *dot {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, exactdep.BuildDepGraph(report.Unit, report.Results).Dot())
	}
	if *distribute {
		dist, err := exactdep.DistributeProgram(prog)
		if err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "distributed:")
		fmt.Fprint(stdout, dist)
	}
	if *showStats {
		s := report.Stats
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "pairs: %d  constant: %d  gcd-independent: %d  tests: %d\n",
			s.Pairs, s.Constant, s.GCDIndependent, s.TotalTests())
		fmt.Fprintf(stdout, "verdicts: %d independent, %d dependent, %d unknown, %d maybe\n",
			s.Independent, s.Dependent, s.Unknown, s.Maybe)
		if s.TotalBudgetTrips() > 0 || s.CancelledPairs > 0 {
			fmt.Fprintf(stdout, "degraded: %d budget trips, %d pairs cancelled\n",
				s.TotalBudgetTrips(), s.CancelledPairs)
		}
		if *memo {
			fmt.Fprintf(stdout, "memo: %d unique cases, %d/%d hits\n",
				s.UniqueFull, s.FullHits, s.FullLookups)
		}
	}
	if *memoStats {
		printMemoStats(stdout, analyzer)
	}
	return 0
}

// startProfiles begins CPU profiling and/or arms a heap-profile write,
// returning the stop function that finishes both. Either path may be empty;
// with both empty the stop function is a no-op.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			first = cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC() // settle live-object statistics before the snapshot
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// printResult renders one pair verdict line (shared by the single-file and
// corpus modes).
func printResult(w io.Writer, r exactdep.Result) {
	fmt.Fprintf(w, "%s vs %s: %s", r.Pair.A.Ref, r.Pair.B.Ref, r.Outcome)
	if !r.Exact {
		switch {
		case r.Trip == exactdep.TripNone:
			fmt.Fprintf(w, " (assumed)")
		case r.Trip.Budgetary():
			fmt.Fprintf(w, " (assumed: %s budget)", r.Trip)
		default:
			fmt.Fprintf(w, " (assumed: %s structural cap)", r.Trip)
		}
	}
	fmt.Fprintf(w, "  [%s", r.DecidedBy)
	if r.DecidedBy == exactdep.ByTest && r.Kind != 0 {
		fmt.Fprintf(w, ": %s", r.Kind)
	}
	fmt.Fprintf(w, "]")
	if len(r.Vectors) > 0 {
		fmt.Fprintf(w, "  vectors:")
		for _, v := range r.Vectors {
			fmt.Fprintf(w, " %s", v)
		}
	}
	for _, d := range r.Distances {
		fmt.Fprintf(w, "  distance[level %d]=%d", d.Level, d.Value)
	}
	fmt.Fprintln(w)
}

// corpusConfig carries the corpus-mode invocation.
type corpusConfig struct {
	args      []string
	opts      exactdep.Options
	workers   int
	timeout   time.Duration
	memoFile  string
	storeFile string
	stats     bool
	memoStats bool
	jsonOut   bool
}

// runCorpus analyzes a directory or a list of files as one corpus: a single
// incremental driver run with shared memo tables, units in deterministic
// order, optionally against a persistent verdict store.
func runCorpus(cfg corpusConfig, stdout, stderr io.Writer) int {
	var src exactdep.Corpus
	if len(cfg.args) == 1 {
		src = exactdep.CorpusDir(cfg.args[0])
	} else {
		src = exactdep.CorpusFiles(cfg.args...)
	}

	driver := exactdep.NewCorpusDriver(cfg.opts, cfg.workers)
	// Stage accounting is opt-in (per-unit clock reads); -stats asks for it.
	driver.TimeStages = cfg.stats
	analyzer := driver.Analyzer()
	if cfg.memoFile != "" {
		if f, err := os.Open(cfg.memoFile); err == nil {
			loadErr := analyzer.LoadMemo(f)
			f.Close()
			if loadErr != nil {
				fmt.Fprintf(stderr, "depanalyze: %v\n", loadErr)
				return 1
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}
	if cfg.storeFile != "" {
		store, err := corpuspkg.OpenStore(cfg.storeFile, cfg.opts)
		if err == nil {
			err = driver.SetStore(store)
		}
		if err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	var jsonResults []exactdep.UnitResult
	first := true
	emit := func(ur exactdep.UnitResult) error {
		if !first {
			fmt.Fprintln(stdout)
		}
		first = false
		fmt.Fprintf(stdout, "== %s", ur.Name)
		if ur.Reused {
			fmt.Fprintf(stdout, " (unchanged, served from store)")
		}
		fmt.Fprintln(stdout, " ==")
		for _, w := range ur.Warnings {
			fmt.Fprintf(stderr, "warning: %s: %s\n", ur.Name, w)
		}
		for _, r := range ur.Results {
			printResult(stdout, r)
		}
		return nil
	}
	if cfg.jsonOut {
		emit = func(ur exactdep.UnitResult) error {
			jsonResults = append(jsonResults, ur)
			return nil
		}
	}
	err := driver.Run(ctx, src, emit)
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}

	if cfg.memoFile != "" {
		if err := saveMemoFile(analyzer, cfg.memoFile); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}
	if cfg.storeFile != "" {
		if err := driver.Store().SaveFile(cfg.storeFile); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
	}

	if cfg.jsonOut {
		if err := writeWireJSON(stdout, jsonResults, driver.Stats, analyzer.Stats, cfg.opts); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		return 0
	}
	if cfg.stats {
		cs, s := driver.Stats, analyzer.Stats
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "corpus: %d units (%d reused, %d solved), %d pairs served, %d pairs solved\n",
			cs.Units, cs.UnitsReused, cs.UnitsSolved, cs.PairsServed, cs.PairsSolved)
		fmt.Fprintf(stdout, "pipeline: load %s  fingerprint %s  probe %s  solve %s  emit %s  wall %s\n",
			cs.Stage.Load, cs.Stage.Fingerprint, cs.Stage.Probe, cs.Stage.Solve, cs.Stage.Emit, cs.Stage.Wall)
		fmt.Fprintf(stdout, "pairs: %d  constant: %d  gcd-independent: %d  tests: %d\n",
			s.Pairs, s.Constant, s.GCDIndependent, s.TotalTests())
		fmt.Fprintf(stdout, "verdicts: %d independent, %d dependent, %d unknown, %d maybe\n",
			s.Independent, s.Dependent, s.Unknown, s.Maybe)
		if s.TotalBudgetTrips() > 0 || s.CancelledPairs > 0 {
			fmt.Fprintf(stdout, "degraded: %d budget trips, %d pairs cancelled\n",
				s.TotalBudgetTrips(), s.CancelledPairs)
		}
		if cfg.opts.Memoize {
			fmt.Fprintf(stdout, "memo: %d unique cases, %d/%d hits\n",
				s.UniqueFull, s.FullHits, s.FullLookups)
		}
	}
	if cfg.memoStats {
		printMemoStats(stdout, analyzer)
	}
	return 0
}

// writeWireJSON renders results as the same versioned wire document
// depserve serves, so scripted clients can switch between the CLI and the
// service without a second parser (and diff the two byte for byte after
// wire.Canonical).
func writeWireJSON(w io.Writer, urs []exactdep.UnitResult, cs exactdep.CorpusStats, counters exactdep.Counters, opts exactdep.Options) error {
	resp := &wire.AnalyzeResponse{
		SchemaVersion: wire.SchemaVersion,
		BudgetClass:   wire.ClassName(opts.Budget),
		Units:         make([]wire.UnitVerdicts, len(urs)),
		Stats:         wire.FromCorpusStats(cs),
		Counters:      wire.FromCounters(counters),
	}
	for i := range urs {
		resp.Units[i] = wire.FromUnitResult(&urs[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(resp)
}

// saveMemoFile persists the analyzer's memo tables (degraded entries are
// dropped by SaveMemo — they are budget-class local). The file is replaced
// atomically, like a store file, so a failed save keeps the previous table.
func saveMemoFile(a *exactdep.Analyzer, path string) error {
	return atomicfile.Write(path, ".exactdep-memo-*", a.SaveMemo)
}

// printMemoStats renders the memo hierarchy introspection: table occupancy,
// shard spread, the L1/L2 split of the lookup traffic, and how much
// capacity holds budget-degraded verdicts.
func printMemoStats(w io.Writer, a *exactdep.Analyzer) {
	m := a.MemoStats()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "memo hierarchy:")
	fmt.Fprintf(w, "  full table: %d entries / %d buckets (%s occupancy)\n",
		m.FullEntries, m.FullBuckets, rate(m.FullEntries, m.FullBuckets))
	fmt.Fprintf(w, "  eq table:   %d entries / %d buckets (%s occupancy)\n",
		m.EqEntries, m.EqBuckets, rate(m.EqEntries, m.EqBuckets))
	fmt.Fprintf(w, "  shards:     %d (entries per shard %d..%d)\n", m.Shards, m.ShardMin, m.ShardMax)
	if m.L1Capacity > 0 {
		fmt.Fprintf(w, "  L1:         %d/%d slots live, %d/%d hits (%s)\n",
			m.L1Entries, m.L1Capacity, m.L1Hits, m.L1Lookups, rate(m.L1Hits, m.L1Lookups))
	} else {
		fmt.Fprintf(w, "  L1:         disabled\n")
	}
	fmt.Fprintf(w, "  L2:         %d/%d hits (%s)\n", m.L2Hits, m.L2Lookups, rate(m.L2Hits, m.L2Lookups))
	fmt.Fprintf(w, "  degraded:   %d entries (maybe verdicts, valid for this budget class only)\n",
		m.DegradedEntries)
}

func rate(part, whole int) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
