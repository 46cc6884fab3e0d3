package exactdep

// Corpus-level incremental analysis: the whole-corpus layer over the
// analyzer. A Corpus is any ordered set of named units (directory trees of
// DSL files, explicit file lists, or in-memory units); the driver
// fingerprints each unit, serves unchanged units from a persistent verdict
// store — an unchanged file through the store's file index, without a
// parse — and batches only changed/new units through the analyzer. See
// internal/corpus and the ARCHITECTURE.md "Corpus layer" section.

import (
	"context"
	"errors"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/memo"
)

// Corpus-layer types.
type (
	// Corpus enumerates the units of a corpus in deterministic order.
	Corpus = corpus.Source
	// CorpusUnit is one named member of a corpus: the invalidation granule
	// of incremental analysis.
	CorpusUnit = corpus.Unit
	// CorpusMem is an in-memory corpus (the units themselves).
	CorpusMem = corpus.Mem
	// CorpusDriver is the incremental corpus driver.
	CorpusDriver = corpus.Driver
	// CorpusStore is the persistent fingerprint → verdict store.
	CorpusStore = corpus.Store
	// CorpusStats counts one run's incremental traffic (units and pairs
	// reused vs solved).
	CorpusStats = corpus.Stats
	// UnitResult is one unit's outcome in corpus order.
	UnitResult = corpus.UnitResult
	// Fingerprint is the 128-bit structural digest of a unit's dependence
	// input.
	Fingerprint = memo.Fingerprint
)

// Corpus constructors.
var (
	// CorpusDir is a Corpus over every *.loop file under a directory tree.
	CorpusDir = corpus.Dir
	// CorpusFiles is a Corpus over an explicit list of DSL files.
	CorpusFiles = corpus.Files
	// NewCorpusDriver returns a fresh incremental driver (workers: 1 runs
	// on the calling goroutine, <= 0 GOMAXPROCS; at one worker CorpusDir
	// and CorpusFiles still read and parse with a GOMAXPROCS pool).
	NewCorpusDriver = corpus.NewDriver
	// NewCorpusStore returns an empty verdict store bound to an options
	// signature.
	NewCorpusStore = corpus.NewStore
	// LoadCorpusStore reads a store snapshot, validating its signature.
	LoadCorpusStore = corpus.LoadStore
)

// CorpusReport is the result of analyzing one corpus.
type CorpusReport struct {
	// Units holds one result per unit, in corpus order. A Dir or Files unit
	// served through the store's file index (Stats.UnitsIndexed of them)
	// was never parsed, so its results carry verdicts, vectors and
	// distances but a zero Result.Pair; call UnitResult.LoadPairs on it
	// before reading the pairs.
	Units []UnitResult
	// Stats counts the run's incremental traffic.
	Stats CorpusStats
	// Counters snapshots the analyzer counters after the run (covers only
	// the units actually solved; store-served units cost no analysis).
	Counters Counters
}

// CorpusRequest is the one corpus-analysis entry value: it names the corpus
// (exactly one of Dir, Files, or Source) and carries the analysis Options.
// Library callers and the depserve service's /v1/corpus endpoint both
// reduce to this value, so every front end selects corpora and validates
// options the same way.
type CorpusRequest struct {
	// Dir selects every *.loop file under a directory tree (CorpusDir).
	Dir string
	// Files selects an explicit list of DSL files (CorpusFiles).
	Files []string
	// Source is any pre-built corpus (in-memory units, custom sources).
	Source Corpus
	// Options configures the analyzer. Options.Workers sizes the whole
	// load/fingerprint/probe/solve pipeline (0 one worker, negative
	// GOMAXPROCS; one worker analyzes on the calling goroutine, but Dir
	// and Files are still read and parsed with a GOMAXPROCS pool);
	// Options.StorePath attaches the persistent verdict store (loaded when
	// present, saved back after the run).
	Options Options
}

// corpus resolves the request's corpus selection.
func (r *CorpusRequest) corpus() (Corpus, error) {
	n := 0
	if r.Dir != "" {
		n++
	}
	if len(r.Files) > 0 {
		n++
	}
	if r.Source != nil {
		n++
	}
	if n != 1 {
		return nil, errCorpusSelection
	}
	switch {
	case r.Dir != "":
		return CorpusDir(r.Dir), nil
	case len(r.Files) > 0:
		return CorpusFiles(r.Files...), nil
	default:
		return r.Source, nil
	}
}

var errCorpusSelection = errors.New("exactdep: CorpusRequest must set exactly one of Dir, Files, or Source")

// AnalyzeCorpusRequest analyzes one corpus request. When Options.StorePath
// is set, the verdict store is loaded from that path if it exists (it must
// match the configuration), consulted so only changed or new units are
// re-solved, and saved back atomically after the run when it changed — the
// incremental IDE/CI workflow in one call. Without a StorePath every unit
// is solved fresh with shared memo tables.
//
// Options.Workers sizes the whole corpus pipeline as in AnalyzeUnitContext
// (0 one worker, negative GOMAXPROCS): at more than one worker the driver
// loads, fingerprints, and store-probes units with a worker pool and
// overlaps analyzer batches with the rest of the front end, with canonical
// results, counters, and store traffic identical at every worker count. Cut-short units degrade to sound Maybe verdicts and are
// never stored. Invalid options are rejected up front with the shared
// Options.Validate error.
func AnalyzeCorpusRequest(ctx context.Context, req CorpusRequest) (*CorpusReport, error) {
	opts := req.Options
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	src, err := req.corpus()
	if err != nil {
		return nil, err
	}
	d := corpus.NewDriver(opts, core.PipelineWorkers(opts.Workers))
	if opts.StorePath != "" {
		store, err := corpus.OpenStore(opts.StorePath, opts)
		if err != nil {
			return nil, err
		}
		if err := d.SetStore(store); err != nil {
			return nil, err
		}
	}
	urs, err := d.RunAll(ctx, src)
	if err != nil {
		return nil, err
	}
	if opts.StorePath != "" {
		if err := d.Store().SaveFile(opts.StorePath); err != nil {
			return nil, err
		}
	}
	return &CorpusReport{Units: urs, Stats: d.Stats, Counters: d.Analyzer().Stats}, nil
}
