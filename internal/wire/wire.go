// Package wire is the versioned JSON schema of the dependence-analysis
// service: the request/response types POSTed to depserve's /v1 endpoints,
// shared verbatim by the depload load generator and depanalyze's -json
// output mode, so the CLI and the server speak one format. The types are
// plain data with JSON tags. Behavior is limited to three things: the
// conversion from the analyzer's internal result types (FromUnitResult,
// the typed view), a JSON appender that renders a whole AnalyzeResponse
// straight from the corpus layer's unit results in the bytes encoding/json
// writes for that typed view (AppendAnalyzeResponse, what depserve and
// depanalyze -json write), and a canonical rendering that is
// byte-identical to the corpus layer's (corpus.AppendCanonical), which is
// what lets a client assert that served verdicts match a local batch run.
//
// Compatibility contract: SchemaVersion is bumped on any change that could
// break an existing client — removing or renaming a field, changing a
// field's meaning, or changing the canonical rendering. Adding fields is
// compatible and does not bump the version. The golden files under
// testdata/ pin the encoding.
package wire

import (
	"strconv"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/stats"
)

// SchemaVersion is the wire schema this package encodes. Requests may carry
// 0 (meaning "current") or the exact version; anything else is rejected.
// Version 2 removed Options.separable.
const SchemaVersion = 2

// AnalyzeRequest is the body of POST /v1/analyze: one or more loop-language
// units to analyze as a single corpus (shared verdict store, deterministic
// unit order — the same population a batch depanalyze run over the same
// files would analyze).
type AnalyzeRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Units are the DSL sources to analyze, in order.
	Units []UnitSource `json:"units"`
	// Options overrides the server's analysis configuration for this
	// request (nil: server defaults). Requests that override options are
	// solved fresh — the warm tier is scoped to the server configuration.
	Options *Options `json:"options,omitempty"`
	// BudgetClass names the per-tenant work budget (see BudgetClasses);
	// empty selects the server's default class. Under load the server may
	// degrade the request to a weaker class instead of shedding it — the
	// response reports the class that actually applied.
	BudgetClass string `json:"budgetClass,omitempty"`
	// DeadlineMillis bounds the whole request's analysis wall clock;
	// pairs not reached degrade to sound 'maybe' verdicts (never an
	// error). 0 means no client deadline; the server caps it either way.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// UnitSource is one named loop-language source unit.
type UnitSource struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Options is the client-settable analysis surface: exactly the fields that
// change result bytes. Memoization layout, worker counts, and persistence
// are server concerns and not on the wire.
type Options struct {
	DirectionVectors bool `json:"directionVectors"`
	PruneUnused      bool `json:"pruneUnused"`
	PruneDistance    bool `json:"pruneDistance"`
	// Cascade names the test pipeline: "" or "full", or "fm-only".
	Cascade string `json:"cascade,omitempty"`
}

// Apply overlays the wire options onto a base core.Options, returning the
// effective configuration.
func (o *Options) Apply(base core.Options) core.Options {
	if o == nil {
		return base
	}
	base.DirectionVectors = o.DirectionVectors
	base.PruneUnused = o.PruneUnused
	base.PruneDistance = o.PruneDistance
	base.Cascade = o.Cascade
	return base
}

// FromCoreOptions projects a core.Options onto its wire surface.
func FromCoreOptions(c core.Options) Options {
	return Options{
		DirectionVectors: c.DirectionVectors,
		PruneUnused:      c.PruneUnused,
		PruneDistance:    c.PruneDistance,
		Cascade:          c.Cascade,
	}
}

// AnalyzeResponse is the body of a successful /v1/analyze (and of
// depanalyze -json, which fills the same shape from a batch run).
type AnalyzeResponse struct {
	SchemaVersion int `json:"schemaVersion"`
	// BudgetClass is the class that actually applied.
	BudgetClass string `json:"budgetClass,omitempty"`
	// RequestedClass echoes the request's class when it differs from the
	// applied one (i.e. when the server degraded the request under load).
	RequestedClass string `json:"requestedClass,omitempty"`
	// DegradedByLoad reports that admission control shrank the budget
	// class below the requested one; verdicts may then include 'maybe'
	// where an unloaded server would have answered exactly.
	DegradedByLoad bool `json:"degradedByLoad,omitempty"`
	// Units holds one entry per request unit, in request order.
	Units []UnitVerdicts `json:"units"`
	// Stats counts the warm-tier traffic of this request.
	Stats CorpusStats `json:"stats"`
	// Counters snapshots the analyzer counters for the solved units.
	Counters Counters `json:"counters"`
}

// UnitVerdicts is one unit's verdicts.
type UnitVerdicts struct {
	Name string `json:"name"`
	// Fingerprint is the unit's 128-bit structural digest, hex-encoded.
	Fingerprint string `json:"fingerprint"`
	// Reused reports that the verdicts came from the warm tier (the
	// fingerprint → verdict store), not the analyzer.
	Reused   bool         `json:"reused,omitempty"`
	Warnings []string     `json:"warnings,omitempty"`
	Results  []PairResult `json:"results"`
}

// PairResult is one candidate pair's verdict.
type PairResult struct {
	// Pair renders the two references ("a[i+1] vs a[i]").
	Pair string `json:"pair"`
	// Outcome is "independent", "dependent", "unknown", or "maybe".
	Outcome string `json:"outcome"`
	// Exact is false for degraded (maybe) and structurally unknown
	// verdicts — the pairs a client must treat as dependent without proof.
	Exact bool `json:"exact"`
	// DecidedBy is the provenance ("constant", "gcd", "test", "cache",
	// "directions"). Session-history dependent: a warm run legitimately
	// reports "cache" where a cold run reports "test".
	DecidedBy string `json:"decidedBy"`
	// Kind names the deciding cascade test when DecidedBy is "test".
	Kind string `json:"kind,omitempty"`
	// Trip names the budget limit that degraded a maybe verdict.
	Trip string `json:"trip,omitempty"`
	// Vectors are dependence direction vectors in "(<, =, *)" notation,
	// outermost loop first.
	Vectors []string `json:"vectors,omitempty"`
	// Distances are the known-constant dependence distances.
	Distances []Distance `json:"distances,omitempty"`
}

// Distance is one constant dependence distance.
type Distance struct {
	Level int   `json:"level"`
	Value int64 `json:"value"`
}

// CorpusStats counts one request's warm-tier traffic (the wire form of
// corpus.Stats).
type CorpusStats struct {
	Units       int `json:"units"`
	UnitsReused int `json:"unitsReused"`
	UnitsSolved int `json:"unitsSolved"`
	PairsServed int `json:"pairsServed"`
	PairsSolved int `json:"pairsSolved"`
}

// Counters is the wire form of the analyzer counters a service client
// cares about: the verdict mix and the degradation profile.
type Counters struct {
	Pairs          int `json:"pairs"`
	Constant       int `json:"constant"`
	GCDIndependent int `json:"gcdIndependent"`
	Tests          int `json:"tests"`
	Independent    int `json:"independent"`
	Dependent      int `json:"dependent"`
	Unknown        int `json:"unknown"`
	Maybe          int `json:"maybe"`
	BudgetTrips    int `json:"budgetTrips"`
	CancelledPairs int `json:"cancelledPairs"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Error         string `json:"error"`
	// RetryAfterSeconds accompanies 429 (the queue was full); clients
	// should back off at least this long.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	SchemaVersion int    `json:"schemaVersion"`
	Status        string `json:"status"`
	UptimeMillis  int64  `json:"uptimeMillis"`
}

// Statsz is the body of GET /v1/statsz: the service's memo/store/queue
// counters.
type Statsz struct {
	SchemaVersion int   `json:"schemaVersion"`
	UptimeMillis  int64 `json:"uptimeMillis"`
	// Admission-control counters.
	QueueDepth    int   `json:"queueDepth"`
	QueueCapacity int   `json:"queueCapacity"`
	Executors     int   `json:"executors"`
	Accepted      int64 `json:"accepted"`
	Completed     int64 `json:"completed"`
	Degraded      int64 `json:"degraded"`
	Shed          int64 `json:"shed"`
	ClientErrors  int64 `json:"clientErrors"`
	// Cancelled counts requests whose context was cancelled or whose
	// deadline expired before completion (client gone, deadline passed).
	// Such requests are degraded or answered 408, never 5xx, and are a
	// subset of Completed.
	Cancelled int64 `json:"cancelled"`
	// Warm-tier counters.
	StoreUnits  int   `json:"storeUnits"`
	UnitsReused int64 `json:"unitsReused"`
	UnitsSolved int64 `json:"unitsSolved"`
	PairsServed int64 `json:"pairsServed"`
	PairsSolved int64 `json:"pairsSolved"`
	// Warm-analyzer / coalescing counters. Batches counts executor batches
	// (every analyze request lands in exactly one); CoalescedJobs counts
	// requests that rode along in a batch after the first (so
	// Batches+CoalescedJobs = coalescable requests completed).
	// BatchSizeHist[i] counts batches of i+1 jobs, last bucket open-ended.
	// FingerprintDeduped counts store probes within one batch that hit a
	// unit an earlier batchmate had just solved and stored.
	// CrossRequestMemoHits counts full-table memo hits observed by a warm
	// analyzer on requests after its first of the current eviction epoch
	// (an upper bound on cross-request reuse: within-request repeats of a
	// problem cached by an earlier request are included).
	// MemoEntries is the current entry total over all warm analyzers'
	// tables; MemoEvictions counts epoch restarts forced by MaxMemoEntries.
	MaxBatch             int     `json:"maxBatch"`
	Batches              int64   `json:"batches"`
	CoalescedJobs        int64   `json:"coalescedJobs"`
	BatchSizeHist        []int64 `json:"batchSizeHist"`
	FingerprintDeduped   int64   `json:"fingerprintDeduped"`
	CrossRequestMemoHits int64   `json:"crossRequestMemoHits"`
	MemoEntries          int64   `json:"memoEntries"`
	MemoEvictions        int64   `json:"memoEvictions"`
}

// CorpusRequest is the body of POST /v1/corpus: analyze a server-local
// corpus (a directory tree or explicit file list under the server's
// configured corpus root). It is the wire twin of the facade's
// CorpusRequest value and is mapped onto it verbatim.
type CorpusRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Dir is a directory of *.loop files relative to the corpus root.
	Dir string `json:"dir,omitempty"`
	// Files is an explicit list of files relative to the corpus root.
	Files []string `json:"files,omitempty"`
	// Options / BudgetClass / DeadlineMillis as in AnalyzeRequest.
	Options        *Options `json:"options,omitempty"`
	BudgetClass    string   `json:"budgetClass,omitempty"`
	DeadlineMillis int64    `json:"deadlineMillis,omitempty"`
}

// BudgetClassDef names one per-tenant work budget. Classes are ordered
// strongest first: admission control under load moves a request toward the
// end of the list ("shrinking"), never toward the front.
type BudgetClassDef struct {
	Name   string
	Budget dtest.Budget
}

// BudgetClasses is the ordered service budget ladder. "exhaustive" is
// unlimited (the batch CLI's default); the count limits of the weaker
// classes are deterministic, so degraded verdicts stay cacheable and
// byte-stable per class.
var BudgetClasses = []BudgetClassDef{
	{Name: "exhaustive", Budget: dtest.Budget{}},
	{Name: "generous", Budget: dtest.Budget{MaxFMEliminations: 100_000, MaxBranchNodes: 10_000, MaxConstraints: 100_000}},
	{Name: "standard", Budget: dtest.Budget{MaxFMEliminations: 10_000, MaxBranchNodes: 1_000, MaxConstraints: 20_000}},
	{Name: "economy", Budget: dtest.Budget{MaxFMEliminations: 1_000, MaxBranchNodes: 128, MaxConstraints: 4_000}},
	{Name: "minimal", Budget: dtest.Budget{MaxFMEliminations: 64, MaxBranchNodes: 16, MaxConstraints: 512}},
}

// ClassIndex resolves a budget class name to its ladder position. The empty
// name resolves to class 0 (exhaustive).
func ClassIndex(name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, c := range BudgetClasses {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// ClassName maps a dtest.Budget back to its ladder name, or "custom" when
// the budget matches no class (e.g. hand-set CLI budget flags).
func ClassName(b dtest.Budget) string {
	cl := b.Class()
	for _, c := range BudgetClasses {
		if c.Budget.Class() == cl {
			return c.Name
		}
	}
	return "custom"
}

// FromUnitResult converts one corpus-layer unit result to its wire form.
func FromUnitResult(ur *corpus.UnitResult) UnitVerdicts {
	uv := UnitVerdicts{
		Name:        ur.Name,
		Fingerprint: string(appendFingerprint(make([]byte, 0, 32), ur.Fingerprint.Hi, ur.Fingerprint.Lo)),
		Reused:      ur.Reused,
		Warnings:    ur.Warnings,
		Results:     make([]PairResult, len(ur.Results)),
	}
	for i := range ur.Results {
		uv.Results[i] = fromResult(&ur.Results[i])
	}
	return uv
}

func fromResult(r *core.Result) PairResult {
	pr := PairResult{
		Pair:      string(appendPairText(nil, &r.Pair)),
		Outcome:   r.Outcome.String(),
		Exact:     r.Exact,
		DecidedBy: r.DecidedBy.String(),
	}
	if r.DecidedBy == core.ByTest && r.Kind != dtest.KindNone {
		pr.Kind = r.Kind.String()
	}
	if r.Trip != dtest.TripNone {
		pr.Trip = r.Trip.String()
	}
	for _, v := range r.Vectors {
		pr.Vectors = append(pr.Vectors, v.String())
	}
	for _, d := range r.Distances {
		pr.Distances = append(pr.Distances, Distance{Level: d.Level, Value: d.Value})
	}
	return pr
}

// FromCorpusStats converts the driver's traffic counters.
func FromCorpusStats(s corpus.Stats) CorpusStats {
	return CorpusStats{
		Units:       s.Units,
		UnitsReused: s.UnitsReused,
		UnitsSolved: s.UnitsSolved,
		PairsServed: s.PairsServed,
		PairsSolved: s.PairsSolved,
	}
}

// FromCounters converts the analyzer counters.
func FromCounters(s stats.Counters) Counters {
	return Counters{
		Pairs:          s.Pairs,
		Constant:       s.Constant,
		GCDIndependent: s.GCDIndependent,
		Tests:          s.TotalTests(),
		Independent:    s.Independent,
		Dependent:      s.Dependent,
		Unknown:        s.Unknown,
		Maybe:          s.Maybe,
		BudgetTrips:    s.TotalBudgetTrips(),
		CancelledPairs: s.CancelledPairs,
	}
}

// tripCode maps a trip name back to its dtest.TripReason ordinal — the form
// the canonical rendering uses. Pinned against dtest by TestTripCodes.
var tripCode = map[string]int{
	"fm-eliminations":   int(dtest.TripFMEliminations),
	"branch-nodes":      int(dtest.TripBranchNodes),
	"constraints":       int(dtest.TripConstraints),
	"deadline":          int(dtest.TripDeadline),
	"cancelled":         int(dtest.TripCancelled),
	"fm-constraint-cap": int(dtest.TripFMConstraintCap),
}

// AppendCanonical appends the canonical rendering of one wire unit: the
// byte-identity surface of the service. For any unit the bytes are
// identical to corpus.AppendCanonical over the equivalent UnitResult
// (pinned by TestWireCanonicalMatchesCorpus), so a client holding wire
// responses can diff them against a local batch run without reconstructing
// internal result types. Provenance (decidedBy/kind) is deliberately
// excluded, exactly as in the corpus layer.
func AppendCanonical(dst []byte, uv *UnitVerdicts) []byte {
	dst = append(dst, uv.Name...)
	dst = append(dst, '\n')
	for i := range uv.Results {
		r := &uv.Results[i]
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = append(dst, r.Outcome...)
		if r.Exact {
			dst = append(dst, " exact"...)
		}
		if r.Trip != "" {
			dst = append(dst, " trip="...)
			dst = strconv.AppendInt(dst, int64(tripCode[r.Trip]), 10)
		}
		for _, v := range r.Vectors {
			dst = append(dst, ' ')
			dst = append(dst, v...)
		}
		for _, d := range r.Distances {
			dst = append(dst, " d"...)
			dst = strconv.AppendInt(dst, int64(d.Level), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, d.Value, 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// Canonical renders a whole response's units.
func Canonical(resp *AnalyzeResponse) []byte {
	var buf []byte
	for i := range resp.Units {
		buf = AppendCanonical(buf, &resp.Units[i])
	}
	return buf
}

// RetryAfter is the backoff the server advertises on a shed request.
const RetryAfter = 1 * time.Second
