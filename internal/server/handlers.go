package server

// HTTP handlers, admission control, and the executor pool. Handlers do all
// client-facing validation (4xx) before admission, so a queued job can only
// fail by analysis outcome — which is never an error: budget and deadline
// trips degrade verdicts to sound Maybe inside the result vocabulary.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"exactdep"
	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/memo"
	"exactdep/internal/wire"
)

// maxBody bounds a request body (64 MiB holds the LargeCorpus suite many
// times over).
const maxBody = 64 << 20

// Admission thresholds, in queue-fill fraction: at >= 1/2 full the request's
// budget class shrinks one step, at >= 3/4 two steps; a full queue sheds.
// The ladder only ever weakens a class — a tenant never gets more budget
// under load than it asked for.
const (
	shrinkOneNum, shrinkOneDen = 1, 2
	shrinkTwoNum, shrinkTwoDen = 3, 4
)

// job is one admitted request waiting for an executor.
type job struct {
	ctx context.Context

	// Analyze requests: the parsed units.
	units corpus.Mem
	// Corpus requests: the facade request with server-root-resolved paths
	// (nil for analyze requests).
	corpusReq *exactdep.CorpusRequest

	// wireOpts is the client's option override (nil: server base options).
	wireOpts *wire.Options
	// overridden is true when wireOpts changes the base result surface —
	// such requests bypass the warm tier entirely.
	overridden bool

	classIdx int // requested budget class (ladder index)
	effClass int // class after admission shrink; >= classIdx

	reply chan jobResult
}

type jobResult struct {
	status int
	// body is a 200 analyze reply rendered by wire.AppendAnalyzeResponse,
	// or a wire value for writeJSON to encode.
	body any
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/corpus", s.handleCorpus)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/statsz", s.handleStatsz)
	return mux
}

// writeJSON writes a reply: a []byte body is already rendered and is
// written as is, any other body is encoded by encoding/json with HTML
// escaping off, the encoding the rendered replies match.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if b, ok := body.([]byte); ok {
		w.Write(b)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

// clientError rejects a request before admission.
func (s *Server) clientError(w http.ResponseWriter, status int, msg string) {
	s.stats.clientErrors.Add(1)
	writeJSON(w, status, wire.ErrorResponse{SchemaVersion: wire.SchemaVersion, Error: msg})
}

// shed rejects an admitted-stage request with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter) {
	s.stats.shed.Add(1)
	secs := int(wire.RetryAfter / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, wire.ErrorResponse{
		SchemaVersion:     wire.SchemaVersion,
		Error:             "service overloaded, retry later",
		RetryAfterSeconds: secs,
	})
}

// admit applies admission control: it sets the job's effective budget class
// from the queue's fill level and enqueues, or reports a shed. Never blocks.
func (s *Server) admit(j *job) bool {
	if s.closing.Load() {
		return false
	}
	depth, capQ := len(s.queue), cap(s.queue)
	shrink := 0
	switch {
	case depth*shrinkTwoDen >= capQ*shrinkTwoNum:
		shrink = 2
	case depth*shrinkOneDen >= capQ*shrinkOneNum:
		shrink = 1
	}
	j.effClass = j.classIdx + shrink
	if last := len(wire.BudgetClasses) - 1; j.effClass > last {
		j.effClass = last
	}
	select {
	case s.queue <- j:
		s.stats.accepted.Add(1)
		if j.effClass > j.classIdx {
			s.stats.degraded.Add(1)
		}
		return true
	default:
		return false
	}
}

// dispatch runs the common post-validation tail of both POST endpoints:
// deadline, admission, and the reply wait.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, j *job, deadlineMillis int64) {
	d := s.maxDeadline
	if deadlineMillis > 0 {
		if cd := time.Duration(deadlineMillis) * time.Millisecond; cd < d {
			d = cd
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	j.ctx = ctx
	j.reply = make(chan jobResult, 1) // buffered: executor never blocks on a gone client

	if !s.admit(j) {
		s.shed(w)
		return
	}
	select {
	case res := <-j.reply:
		writeJSON(w, res.status, res.body)
	case <-r.Context().Done():
		// Client disconnected; the executor sees the cancelled context and
		// replies into the buffer.
	}
}

// decodeInto decodes a JSON body, rejecting unknown schema versions.
func decodeInto(r *http.Request, w http.ResponseWriter, v any, version *int) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if *version != 0 && *version != wire.SchemaVersion {
		return fmt.Errorf("unsupported schemaVersion %d (server speaks %d)", *version, wire.SchemaVersion)
	}
	return nil
}

// resolveOptions overlays a client option override onto the server base and
// validates it, reporting whether the result surface actually changed.
func (s *Server) resolveOptions(o *wire.Options) (core.Options, bool, error) {
	opts := s.baseOpts
	overridden := false
	if o != nil && *o != wire.FromCoreOptions(s.baseOpts) {
		opts = o.Apply(s.baseOpts)
		overridden = true
		if err := opts.Validate(); err != nil {
			return opts, true, err
		}
	}
	return opts, overridden, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.clientError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req wire.AnalyzeRequest
	if err := decodeInto(r, w, &req, &req.SchemaVersion); err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Units) == 0 {
		s.clientError(w, http.StatusBadRequest, "no units in request")
		return
	}
	classIdx, ok := wire.ClassIndex(req.BudgetClass)
	if !ok {
		s.clientError(w, http.StatusBadRequest, fmt.Sprintf("unknown budget class %q", req.BudgetClass))
		return
	}
	if _, overridden, err := s.resolveOptions(req.Options); err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	} else if !overridden {
		req.Options = nil // normalized: identical override == no override
	}
	units := make(corpus.Mem, 0, len(req.Units))
	for i, us := range req.Units {
		name := us.Name
		if name == "" {
			name = "unit" + strconv.Itoa(i)
		}
		u, err := corpus.FromSource(name, us.Source)
		if err != nil {
			s.clientError(w, http.StatusBadRequest, fmt.Sprintf("unit %q: %v", name, err))
			return
		}
		units = append(units, u)
	}
	s.dispatch(w, r, &job{
		units:      units,
		wireOpts:   req.Options,
		overridden: req.Options != nil,
		classIdx:   classIdx,
	}, req.DeadlineMillis)
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.clientError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.CorpusRoot == "" {
		s.clientError(w, http.StatusNotFound, "corpus endpoint disabled (no corpus root configured)")
		return
	}
	var req wire.CorpusRequest
	if err := decodeInto(r, w, &req, &req.SchemaVersion); err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	classIdx, ok := wire.ClassIndex(req.BudgetClass)
	if !ok {
		s.clientError(w, http.StatusBadRequest, fmt.Sprintf("unknown budget class %q", req.BudgetClass))
		return
	}
	if _, _, err := s.resolveOptions(req.Options); err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	if (req.Dir == "") == (len(req.Files) == 0) {
		s.clientError(w, http.StatusBadRequest, "set exactly one of dir or files")
		return
	}
	fReq := &exactdep.CorpusRequest{}
	if req.Dir != "" {
		if !filepath.IsLocal(req.Dir) {
			s.clientError(w, http.StatusBadRequest, fmt.Sprintf("dir %q escapes the corpus root", req.Dir))
			return
		}
		fReq.Dir = filepath.Join(s.cfg.CorpusRoot, req.Dir)
	}
	for _, f := range req.Files {
		if !filepath.IsLocal(f) {
			s.clientError(w, http.StatusBadRequest, fmt.Sprintf("file %q escapes the corpus root", f))
			return
		}
		fReq.Files = append(fReq.Files, filepath.Join(s.cfg.CorpusRoot, f))
	}
	s.dispatch(w, r, &job{
		corpusReq: fReq,
		wireOpts:  req.Options,
		classIdx:  classIdx,
	}, req.DeadlineMillis)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.closing.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, wire.Health{
		SchemaVersion: wire.SchemaVersion,
		Status:        status,
		UptimeMillis:  time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	hist := make([]int64, batchSizeBuckets)
	for i := range hist {
		hist[i] = s.stats.batchSizes[i].Load()
	}
	writeJSON(w, http.StatusOK, wire.Statsz{
		SchemaVersion: wire.SchemaVersion,
		UptimeMillis:  time.Since(s.start).Milliseconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Executors:     s.cfg.Executors,
		Accepted:      s.stats.accepted.Load(),
		Completed:     s.stats.completed.Load(),
		Degraded:      s.stats.degraded.Load(),
		Shed:          s.stats.shed.Load(),
		ClientErrors:  s.stats.clientErrors.Load(),
		Cancelled:     s.stats.cancelled.Load(),
		StoreUnits:    s.StoreLen(),
		UnitsReused:   s.stats.unitsReused.Load(),
		UnitsSolved:   s.stats.unitsSolved.Load(),
		PairsServed:   s.stats.pairsServed.Load(),
		PairsSolved:   s.stats.pairsSolved.Load(),

		MaxBatch:             s.cfg.MaxBatch,
		Batches:              s.stats.batches.Load(),
		CoalescedJobs:        s.stats.coalescedJobs.Load(),
		BatchSizeHist:        hist,
		FingerprintDeduped:   s.stats.fpDeduped.Load(),
		CrossRequestMemoHits: s.stats.crossMemoHits.Load(),
		MemoEntries:          s.memoEntries(),
		MemoEvictions:        s.stats.memoEvictions.Load(),
	})
}

// executor drains the queue until Shutdown, then finishes whatever is still
// queued (the HTTP server has already stopped admitting by then).
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.process(j)
		case <-s.execStop:
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				default:
					return
				}
			}
		}
	}
}

// coalescable reports whether a job may ride in a warm-analyzer batch:
// analyze requests on the server's option surface. Corpus requests run
// through the facade, and option overrides get a throwaway driver, so
// neither can share a warm analyzer.
func coalescable(j *job) bool {
	return j.corpusReq == nil && !j.overridden
}

// process serves one dequeued job, plus — for coalescable jobs — up to
// MaxBatch-1 queued same-class peers merged into the same warm-analyzer
// batch. Draining may pull a job that cannot join the batch (different
// class, corpus request, option override); it is looped on here rather
// than re-queued, preserving FIFO order.
func (s *Server) process(j *job) {
	for j != nil {
		if s.gate != nil {
			<-s.gate
		}
		j = s.processBatch(j)
	}
}

// processBatch runs j (batched with any same-class peers it can drain) and
// returns the first non-matching job pulled off the queue, or nil.
func (s *Server) processBatch(j *job) *job {
	if !coalescable(j) {
		s.finish(j, s.run(j))
		return nil
	}
	batch := []*job{j}
	var next *job
drain:
	for len(batch) < s.cfg.MaxBatch {
		select {
		case nj := <-s.queue:
			if coalescable(nj) && nj.effClass == j.effClass {
				batch = append(batch, nj)
			} else {
				next = nj
				break drain
			}
		default:
			break drain
		}
	}
	s.runBatch(batch)
	return next
}

// finish delivers a job's reply and feeds the completion counters. A job
// whose context died before completion (client gone, deadline passed)
// counts as cancelled — its verdicts degraded or its reply is a 408, never
// a server error. The counters move before the reply is sent, so a client
// that holds its reply always finds itself counted in statsz.
func (s *Server) finish(j *job, res jobResult) {
	if j.ctx.Err() != nil {
		s.stats.cancelled.Add(1)
	}
	s.stats.completed.Add(1)
	j.reply <- res
}

// runBatch serves a batch of same-class jobs sequentially on the class's
// warm analyzer. Sequential replay is what makes coalesced replies
// byte-identical to a one-job-at-a-time run by construction: each job gets
// exactly the driver run it would have gotten alone, in admission order,
// against the same store and (warm) memo state — the batch saves the
// per-job driver construction and keeps the memo tables hot, it never
// changes the operation sequence. Each job's own context governs its
// solve, so an expired job degrades to Maybe/cancelled alone without
// poisoning batchmates (its tripped units are never stored, and batchmates
// holding the same units simply re-solve them memo-hot).
func (s *Server) runBatch(batch []*job) {
	// The batch counters move before the first reply is sent, so a client
	// that holds its reply always finds its batch counted in statsz.
	s.stats.batches.Add(1)
	s.stats.coalescedJobs.Add(int64(len(batch) - 1))
	bucket := len(batch) - 1
	if bucket >= batchSizeBuckets {
		bucket = batchSizeBuckets - 1
	}
	s.stats.batchSizes[bucket].Add(1)

	wa := s.warm[batch[0].effClass]
	wa.mu.Lock()
	// solved tracks fingerprints solved by earlier jobs of this batch, so
	// fingerprintDeduped can meter cross-request dedup within the batch.
	solved := make(map[memo.Fingerprint]bool)
	for _, j := range batch {
		s.finish(j, s.runWarm(j, wa, solved))
		wa.jobs++
	}
	if s.memoLimit > 0 {
		if a := wa.driver.Analyzer(); a.MemoLen() > s.memoLimit {
			a.EvictMemo()
			wa.jobs = 0
			s.stats.memoEvictions.Add(1)
		}
	}
	wa.mu.Unlock()
}

// runWarm executes one coalescable job on its class's warm analyzer, whose
// driver probes, solves and stores back against the shared warm tier under
// the class's store rules (corpus.Driver.SetStore). The caller holds
// wa.mu.
func (s *Server) runWarm(j *job, wa *warmAnalyzer, solved map[memo.Fingerprint]bool) jobResult {
	a := wa.driver.Analyzer()
	a.ResetStats() // per-request counters; the memo tables stay warm
	firstEpochJob := wa.jobs == 0
	urs, err := wa.driver.RunAll(j.ctx, j.units)
	if err != nil {
		return s.errorResult(j, err, http.StatusInternalServerError)
	}
	if !firstEpochJob {
		s.stats.crossMemoHits.Add(int64(a.Stats.FullHits))
	}
	for i := range urs {
		fp := urs[i].Fingerprint
		if !urs[i].Reused {
			solved[fp] = true
		} else if solved[fp] {
			s.stats.fpDeduped.Add(1)
		}
	}
	return s.respond(j, urs, wa.driver.Stats, wire.FromCounters(a.Stats))
}

// run executes one non-coalescable job (corpus request or option override)
// and builds its reply.
func (s *Server) run(j *job) jobResult {
	if j.corpusReq != nil {
		return s.runCorpus(j)
	}
	// Option override: a throwaway storeless driver — a foreign result
	// surface must touch neither the warm tier nor a warm analyzer's memo.
	opts := j.wireOpts.Apply(s.baseOpts)
	opts.Budget = wire.BudgetClasses[j.effClass].Budget
	d := corpus.NewDriver(opts, core.PipelineWorkers(s.baseOpts.Workers))
	urs, err := d.RunAll(j.ctx, j.units)
	if err != nil {
		return s.errorResult(j, err, http.StatusInternalServerError)
	}
	return s.respond(j, urs, d.Stats, wire.FromCounters(d.Analyzer().Stats))
}

// errorResult classifies a failed run. A context-cancellation error (or any
// error surfacing after the job's own context died) means the client is
// gone or out of time — that is a request outcome, answered 408, never a
// server error. Anything else gets fallback (500 for analyze, 400 for
// corpus selection errors).
func (s *Server) errorResult(j *job, err error, fallback int) jobResult {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || j.ctx.Err() != nil {
		return jobResult{http.StatusRequestTimeout, wire.ErrorResponse{
			SchemaVersion: wire.SchemaVersion,
			Error:         "request cancelled: " + err.Error(),
		}}
	}
	return jobResult{fallback, wire.ErrorResponse{SchemaVersion: wire.SchemaVersion, Error: err.Error()}}
}

func (s *Server) runCorpus(j *job) jobResult {
	req := *j.corpusReq
	req.Options = j.wireOpts.Apply(s.baseOpts)
	req.Options.Budget = wire.BudgetClasses[j.effClass].Budget
	rep, err := exactdep.AnalyzeCorpusRequest(j.ctx, req)
	if err != nil {
		// Options were validated at the handler, so what's left is either a
		// dead request context (mapped to 408 by errorResult) or the
		// client's corpus selection (missing dir, unreadable file, parse
		// error): a bad request, not a server failure.
		return s.errorResult(j, err, http.StatusBadRequest)
	}
	return s.respond(j, rep.Units, rep.Stats, wire.FromCounters(rep.Counters))
}

// respond renders a run's reply straight from its unit results and feeds
// the service counters.
func (s *Server) respond(j *job, urs []corpus.UnitResult, st corpus.Stats, counters wire.Counters) jobResult {
	resp := &wire.AnalyzeResponse{
		SchemaVersion: wire.SchemaVersion,
		BudgetClass:   wire.BudgetClasses[j.effClass].Name,
		Stats:         wire.FromCorpusStats(st),
		Counters:      counters,
	}
	if j.effClass != j.classIdx {
		resp.RequestedClass = wire.BudgetClasses[j.classIdx].Name
		resp.DegradedByLoad = true
	}
	s.stats.unitsReused.Add(int64(st.UnitsReused))
	s.stats.unitsSolved.Add(int64(st.UnitsSolved))
	s.stats.pairsServed.Add(int64(st.PairsServed))
	s.stats.pairsSolved.Add(int64(st.PairsSolved))
	return jobResult{http.StatusOK, wire.AppendAnalyzeResponse(nil, resp, urs)}
}
