package dtest

import (
	"fmt"
	"slices"
	"time"

	"exactdep/internal/system"
)

// Config is a fixed cascade: the tests it runs, cheapest first (§3). There
// are two, DefaultConfig and FMOnlyConfig, each shared by every Pipeline
// built from it (and so across workers); all mutable per-run memory lives
// in the Pipeline.
type Config struct {
	kinds []Kind
}

var (
	defaultConfig = &Config{kinds: []Kind{KindSVPC, KindAcyclic, KindLoopResidue, KindFourierMotzkin}}
	fmOnlyConfig  = &Config{kinds: []Kind{KindFourierMotzkin}}
)

// DefaultConfig is the paper's cascade: SVPC → Acyclic → Loop Residue →
// Fourier–Motzkin, cheapest test first (§3).
func DefaultConfig() *Config { return defaultConfig }

// FMOnlyConfig runs the Fourier–Motzkin backup alone. Every problem the
// cheap tests decide must get the same verdict from FM — the configuration
// exists for that cross-validation and for ablation benchmarks.
func FMOnlyConfig() *Config { return fmOnlyConfig }

// Kinds returns the config's tests in the order they run.
func (c *Config) Kinds() []Kind { return slices.Clone(c.kinds) }

// ConfigByName resolves a cascade configuration by its name. "" and "full"
// name the default cascade; "fm-only" the Fourier–Motzkin cross-validation
// pipeline.
func ConfigByName(name string) (*Config, error) {
	switch name {
	case "", "full":
		return defaultConfig, nil
	case "fm-only":
		return fmOnlyConfig, nil
	}
	return nil, fmt.Errorf("dtest: unknown cascade configuration %q (want \"full\" or \"fm-only\")", name)
}

// StageMetrics is the Table 6 cost accounting of one stage: how many
// problems consulted it (applicability probes), how many it decided, and —
// when timing is enabled — the cumulative wall time spent in it.
type StageMetrics struct {
	Consulted int
	Decided   int
	Time      time.Duration
}

// Pipeline runs a Config's stages over problems, reusing one Scratch across
// problems and accumulating per-stage metrics. It is the single cascade
// engine: Solve and SolveState are thin wrappers over throwaway pipelines,
// and the analyzer gives each worker a persistent one.
//
// A Pipeline is not safe for concurrent use. Results and traces returned by
// Run/RunTraced alias the pipeline's scratch buffers and are valid only
// until the next Run/RunTraced on the same pipeline; callers that keep a
// witness or trace across problems must copy it.
type Pipeline struct {
	cfg     *Config
	sc      *Scratch
	timed   bool
	metrics [KindFourierMotzkin + 1]StageMetrics // indexed by Kind
}

// NewPipeline builds a pipeline (with its own Scratch) over this config.
func (c *Config) NewPipeline() *Pipeline {
	return &Pipeline{cfg: c, sc: newScratch()}
}

// SetTimed toggles per-stage wall-time accounting. Off by default: the two
// clock reads per consulted stage are measurable next to a sub-microsecond
// SVPC probe, so timing is opt-in for cost reports.
func (p *Pipeline) SetTimed(on bool) { p.timed = on }

// SetBudget installs a per-problem resource budget, carried in the
// pipeline's Scratch and consulted at the Fourier–Motzkin / branch-and-bound
// hot points. The zero Budget (the default) is unlimited. When a limit fires
// the cascade returns a sound Maybe verdict with Result.Trip set.
func (p *Pipeline) SetBudget(b Budget) { p.sc.bud.limits = b }

// Budget returns the installed budget.
func (p *Pipeline) Budget() Budget { return p.sc.bud.limits }

// SetCancel installs a cancellation signal (typically ctx.Done()) polled at
// the same hot points as the budget; a closed channel trips the current
// problem with TripCancelled. nil (the default) disables the poll.
func (p *Pipeline) SetCancel(c <-chan struct{}) { p.sc.bud.cancel = c }

// StageMetrics returns the accumulated metrics of test k (zero for a test
// the config does not run).
func (p *Pipeline) StageMetrics(k Kind) StageMetrics { return p.metrics[k] }

// FMMetrics is the Fourier–Motzkin redundancy-elimination accounting,
// cumulative over every problem the pipeline has run: how many derived
// constraints were dropped as duplicates of an equal-or-tighter entry, and
// how many duplicates instead tightened the retained entry's constant.
type FMMetrics struct {
	Deduped   int
	Tightened int
}

// FMMetrics returns the pipeline's cumulative FM redundancy counters.
func (p *Pipeline) FMMetrics() FMMetrics {
	return FMMetrics{Deduped: p.sc.fm.deduped, Tightened: p.sc.fm.tightened}
}

// Run solves one preprocessed t-space system, without trace collection —
// the hot path: a problem the cheap tests decide allocates nothing once the
// scratch is warm.
func (p *Pipeline) Run(ts *system.TSystem) Result {
	r, _ := p.run(p.sc.prepare(ts), false)
	return r
}

// RunTraced is Run also reporting the applicability path. The trace's
// Consulted slice is scratch-backed: valid until the next Run/RunTraced.
func (p *Pipeline) RunTraced(ts *system.TSystem) (Result, Trace) {
	return p.run(p.sc.prepare(ts), true)
}

// run drives the cascade over a prepared state, one test after another
// until one decides. A test that does not decide hands on the state the
// next one consumes: the input unchanged, except that the Acyclic test hands
// on its partly simplified state ("simplifies the system for the next
// stages", §3.3). If no test decides (which cannot happen in a config ending
// in Fourier–Motzkin) the verdict is an inexact Unknown with KindNone.
func (p *Pipeline) run(s *state, trace bool) (Result, Trace) {
	var tr Trace
	sc := p.sc
	sc.journal = sc.journal[:0]
	consulted := sc.consulted[:0]
	for _, k := range p.cfg.kinds {
		m := &p.metrics[k]
		m.Consulted++
		if trace {
			consulted = append(consulted, k)
		}
		var start time.Time
		if p.timed {
			start = time.Now()
		}
		var r Result
		decided := true
		switch k {
		case KindSVPC:
			r, decided, sc.witness = svpc(s, sc.witness)
		case KindAcyclic:
			r, s, decided = acyclicApply(s, sc)
		case KindLoopResidue:
			r, decided = residueApply(s, sc)
		case KindFourierMotzkin:
			r = fourierApply(s, sc)
		}
		if decided && r.Outcome == Dependent && k != KindAcyclic && len(sc.journal) > 0 {
			// The witness solves the state the Acyclic test simplified:
			// give the variables it eliminated their values.
			if replayJournal(r.Witness, sc.journal, sc.dropped) != nil {
				r = unknown(k)
			}
		}
		if p.timed {
			m.Time += time.Since(start)
		}
		if decided {
			m.Decided++
			sc.consulted = consulted
			if trace {
				tr.Consulted = consulted
				tr.Decided = k
			}
			return r, tr
		}
	}
	sc.consulted = consulted
	if trace {
		tr.Consulted = consulted
	}
	return unknown(KindNone), tr
}
