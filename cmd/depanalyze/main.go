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
// whose dependence structure changed. A single file is analyzed as a
// corpus of one unit by the same driver. The per-program renderers
// (-annotate, -dot, -distribute) and the parallelization summary need a
// single parsed program and are rejected in corpus mode.
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
//	-memostats        print memo table occupancy, shard spread, hit
//	                  rate, and degraded-entry counts (implies -memo)
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"exactdep/internal/persist"
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
	memoStats := fs.Bool("memostats", false, "print memo occupancy, shard spread, hit rate, degraded entries (implies -memo)")
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
	if corpusMode && (*annotate || *dot || *distribute) {
		fmt.Fprintln(stderr, "depanalyze: -annotate, -dot and -distribute need a single program, not a corpus")
		return 2
	}

	// A single file runs as a corpus of one unit, through the same driver
	// as corpus mode; its parsed program stays at hand for the per-program
	// renderers.
	var (
		src  exactdep.Corpus
		prog *exactdep.Program
		unit *exactdep.Unit
	)
	switch {
	case !corpusMode:
		text, err := readSource(fs.Arg(0))
		if err == nil {
			prog, err = exactdep.Parse(text)
		}
		if err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		unit = exactdep.Lower(prog)
		name := fs.Arg(0)
		if name == "-" {
			name = "stdin"
		}
		src = exactdep.CorpusMem{{Name: name, Cands: exactdep.Pairs(unit), Warnings: unit.Warnings}}
	case fs.NArg() == 1:
		src = exactdep.CorpusDir(fs.Arg(0))
	default:
		src = exactdep.CorpusFiles(fs.Args()...)
	}

	var urs []exactdep.UnitResult
	emit := func(ur exactdep.UnitResult) error {
		urs = append(urs, ur)
		return nil
	}
	if corpusMode && !*jsonOut {
		emit = unitPrinter(stdout, stderr)
	}
	driver, err := analyze(src, emit, corpusConfig{
		opts:      opts,
		workers:   *workers,
		timeout:   *timeout,
		memoFile:  *memoFile,
		storeFile: *storeFile,
		stats:     *showStats,
	})
	if err != nil {
		fmt.Fprintf(stderr, "depanalyze: %v\n", err)
		return 1
	}
	analyzer := driver.Analyzer()

	if *jsonOut {
		if err := writeWireJSON(stdout, urs, driver.Stats, analyzer.Stats, opts); err != nil {
			fmt.Fprintf(stderr, "depanalyze: %v\n", err)
			return 1
		}
		return 0
	}
	if !corpusMode {
		results := urs[0].Results
		for _, w := range unit.Warnings {
			fmt.Fprintf(stderr, "warning: %s\n", w)
		}
		for _, r := range results {
			printResult(stdout, r)
		}
		if *par {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "parallelization:")
			fmt.Fprint(stdout, exactdep.ParallelizeResults(unit, results))
		}
		if *annotate {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "annotated source:")
			fmt.Fprint(stdout, exactdep.AnnotateSource(prog, exactdep.ParallelizeResults(unit, results)))
		}
		if *dot {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, exactdep.BuildDepGraph(unit, results).Dot())
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
	}
	if *showStats {
		fmt.Fprintln(stdout)
		if corpusMode {
			cs := driver.Stats
			fmt.Fprintf(stdout, "corpus: %d units (%d reused, %d solved), %d pairs served, %d pairs solved\n",
				cs.Units, cs.UnitsReused, cs.UnitsSolved, cs.PairsServed, cs.PairsSolved)
			fmt.Fprintf(stdout, "pipeline: load %s  fingerprint %s  probe %s  solve %s  emit %s  wait %s  wall %s\n",
				cs.Stage.Load, cs.Stage.Fingerprint, cs.Stage.Probe, cs.Stage.Solve, cs.Stage.Emit, cs.Stage.Wait, cs.Stage.Wall)
		}
		s := analyzer.Stats
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

// corpusConfig carries what one driver run needs besides the corpus.
type corpusConfig struct {
	opts      exactdep.Options
	workers   int
	timeout   time.Duration
	memoFile  string
	storeFile string
	stats     bool
}

// analyze runs src through one incremental driver with shared memo tables,
// units in deterministic order: the memo file is loaded before the run and
// saved after it, the store likewise, and -timeout bounds the run.
func analyze(src exactdep.Corpus, emit func(exactdep.UnitResult) error, cfg corpusConfig) (*exactdep.CorpusDriver, error) {
	driver := exactdep.NewCorpusDriver(cfg.opts, cfg.workers)
	// Stage accounting is opt-in (per-unit clock reads); -stats asks for it.
	driver.TimeStages = cfg.stats
	analyzer := driver.Analyzer()
	if cfg.memoFile != "" {
		// A stale memo file (an older format or semantics version) starts
		// the run cold; the save after the run replaces it.
		if f, err := os.Open(cfg.memoFile); err == nil {
			loadErr := analyzer.LoadMemo(f)
			f.Close()
			if loadErr != nil && !errors.Is(loadErr, persist.ErrStale) {
				return nil, fmt.Errorf("%s: %w", cfg.memoFile, loadErr)
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	if cfg.storeFile != "" {
		store, err := corpuspkg.OpenStore(cfg.storeFile, cfg.opts)
		if err == nil {
			err = driver.SetStore(store)
		}
		if err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if err := driver.Run(ctx, src, emit); err != nil {
		return nil, err
	}
	if cfg.memoFile != "" {
		if err := saveMemoFile(analyzer, cfg.memoFile); err != nil {
			return nil, err
		}
	}
	if cfg.storeFile != "" {
		if err := driver.Store().SaveFile(cfg.storeFile); err != nil {
			return nil, err
		}
	}
	return driver, nil
}

// unitPrinter returns the corpus-mode emit callback: each unit's text
// report under a "== name ==" header, as the driver streams it out.
func unitPrinter(stdout, stderr io.Writer) func(exactdep.UnitResult) error {
	first := true
	return func(ur exactdep.UnitResult) error {
		// A unit served through the store's file index carries no pairs.
		if err := ur.LoadPairs(); err != nil {
			return err
		}
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
}

// writeWireJSON renders results as the same versioned wire document
// depserve serves, so scripted clients can switch between the CLI and the
// service without a second parser (and diff the two byte for byte after
// wire.Canonical). It is depserve's rendering, indented.
func writeWireJSON(w io.Writer, urs []exactdep.UnitResult, cs exactdep.CorpusStats, counters exactdep.Counters, opts exactdep.Options) error {
	for i := range urs {
		// A unit served through the store's file index carries no pairs.
		if err := urs[i].LoadPairs(); err != nil {
			return err
		}
	}
	body := wire.AppendAnalyzeResponse(nil, &wire.AnalyzeResponse{
		SchemaVersion: wire.SchemaVersion,
		BudgetClass:   wire.ClassName(opts.Budget),
		Stats:         wire.FromCorpusStats(cs),
		Counters:      wire.FromCounters(counters),
	}, urs)
	var out bytes.Buffer
	if err := json.Indent(&out, body, "", "  "); err != nil {
		return err
	}
	_, err := out.WriteTo(w)
	return err
}

// saveMemoFile persists the analyzer's memo tables (degraded entries are
// dropped by SaveMemo — they are budget-class local). The file is replaced
// atomically, like a store file, so a failed save keeps the previous table.
func saveMemoFile(a *exactdep.Analyzer, path string) error {
	return atomicfile.Write(path, ".exactdep-memo-*", a.SaveMemo)
}

// printMemoStats renders the memo hierarchy introspection: table occupancy,
// shard spread, the full-table lookup traffic, and how much capacity holds
// budget-degraded verdicts.
func printMemoStats(w io.Writer, a *exactdep.Analyzer) {
	m := a.MemoStats()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "memo hierarchy:")
	fmt.Fprintf(w, "  full table: %d entries / %d buckets (%s occupancy)\n",
		m.FullEntries, m.FullBuckets, rate(m.FullEntries, m.FullBuckets))
	fmt.Fprintf(w, "  eq table:   %d entries / %d buckets (%s occupancy)\n",
		m.EqEntries, m.EqBuckets, rate(m.EqEntries, m.EqBuckets))
	fmt.Fprintf(w, "  shards:     %d (entries per shard %d..%d)\n", m.Shards, m.ShardMin, m.ShardMax)
	s := a.Stats
	fmt.Fprintf(w, "  lookups:    %d/%d hits (%s)\n", s.FullHits, s.FullLookups, rate(s.FullHits, s.FullLookups))
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
