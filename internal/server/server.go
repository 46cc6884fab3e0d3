// Package server is the depserve service layer: a long-running stdlib
// net/http daemon serving dependence verdicts over the versioned JSON wire
// API (internal/wire). It composes the pieces the batch front ends already
// use — the corpus driver for scheduling, the fingerprint → verdict store
// as a warm tier shared across requests and restarts, dtest budget classes
// for per-tenant work limits, and context deadlines mapped onto
// AnalyzeAllContext — and adds the one thing a daemon needs that a CLI does
// not: admission control. Under load the bounded queue first shrinks a
// request's budget class (verdicts degrade to sound 'maybe', reported in
// the response) and only sheds with 429 + Retry-After once the queue is
// full. Analysis outcomes are never 5xx: deadlines, cancellations, and
// budget trips all degrade inside the verdict vocabulary.
//
// Request lifecycle (see ARCHITECTURE.md "Service layer"):
//
//	decode → validate (schema, class, options) → parse units →
//	admission (shrink or shed) → queue → executor:
//	  warm driver run (warm-tier probe → solve misses → store-back) →
//	  reply
//
// The warm tier is one corpus.Store bound to the server's base
// configuration (options signature + default budget class), shared by
// every budget class's warm driver through Driver.SetStore. The corpus
// driver owns all store traffic: the default class serves and stores
// under the ordinary rules, and every other class (tenant-chosen or
// admission-degraded) runs under the driver's cross-class rule — served
// only Maybe-free stored units, storing back only untripped results — so
// class-scoped Maybe verdicts never leak across classes. The store is
// opened on boot (corpus.OpenStore) and saved periodically
// (Config.SnapshotEvery) and on shutdown with Store.SaveFile: atomically,
// and only when it changed.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/wire"
)

// Config configures a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Options is the base analysis configuration (the result-bytes surface
	// plus Workers, which sizes the per-request corpus pipeline). Budget
	// and StorePath are managed by the server: Budget comes from the
	// request's effective budget class, persistence from StorePath below.
	Options core.Options
	// DefaultClass names the budget class applied when a request does not
	// choose one ("" = "exhaustive", the batch CLI's behavior).
	DefaultClass string
	// QueueDepth bounds the admission queue (0 = 64). Requests beyond the
	// shrink thresholds degrade; requests beyond the queue shed with 429.
	QueueDepth int
	// Executors is the number of goroutines draining the queue (0 = 1).
	// Analysis parallelism within a request comes from Options.Workers;
	// more executors trade per-request latency for throughput.
	Executors int
	// MaxBatch bounds how many queued same-class requests one executor
	// coalesces into a single warm-analyzer batch (0 = 8; 1 disables
	// coalescing). Coalesced requests share one probe/solve/put cycle per
	// job on the class's long-lived analyzer, so a burst pays driver setup
	// once and runs memo-hot after the first job.
	MaxBatch int
	// MaxMemoEntries bounds each warm analyzer's memo tables: when a batch
	// leaves an analyzer above this many entries (summed over its full and
	// eq tables) the tables are dropped and a fresh memoization epoch
	// starts (0 = 1<<20; negative = never evict). Eviction never changes
	// result bytes — evicted problems are simply re-solved.
	MaxMemoEntries int
	// StorePath persists the warm tier across restarts ("" = in-memory
	// only). Loaded on boot when present (it must match the
	// configuration), saved periodically and on shutdown.
	StorePath string
	// SnapshotEvery is the periodic store-save cadence (0 = only on
	// shutdown). Saves are skipped while the store is clean.
	SnapshotEvery time.Duration
	// MaxDeadline caps every request's analysis wall clock (0 = 60s). A
	// request's own deadlineMillis can only lower it.
	MaxDeadline time.Duration
	// CorpusRoot enables POST /v1/corpus over server-local files under
	// this directory ("" = endpoint disabled).
	CorpusRoot string
}

// Defaults.
const (
	defaultQueueDepth     = 64
	defaultMaxDeadline    = 60 * time.Second
	defaultMaxBatch       = 8
	defaultMaxMemoEntries = 1 << 20
)

// batchSizeBuckets sizes the batch-size histogram: bucket i counts batches
// of i+1 jobs, with the last bucket open-ended (>= batchSizeBuckets jobs).
const batchSizeBuckets = 8

// serverStats are the monotonically increasing service counters surfaced
// by /v1/statsz.
type serverStats struct {
	accepted     atomic.Int64
	completed    atomic.Int64
	degraded     atomic.Int64 // requests shrunk below their requested class
	shed         atomic.Int64 // requests rejected with 429
	clientErrors atomic.Int64 // 4xx before admission
	cancelled    atomic.Int64 // requests whose context died before completion
	unitsReused  atomic.Int64
	unitsSolved  atomic.Int64
	pairsServed  atomic.Int64
	pairsSolved  atomic.Int64

	// Warm-analyzer / coalescing counters (see wire.Statsz for semantics).
	batches       atomic.Int64
	coalescedJobs atomic.Int64
	fpDeduped     atomic.Int64
	crossMemoHits atomic.Int64
	memoEvictions atomic.Int64
	batchSizes    [batchSizeBuckets]atomic.Int64
}

// warmAnalyzer is one budget class's long-lived analysis engine: a
// persistent corpus driver over the shared warm tier whose analyzer
// retains its memo tables, in-flight singleflight, and worker views across
// requests, so a same-class burst runs memo-hot after its first job. The
// mutex serializes whole executor batches (the driver is not safe for
// concurrent use); executors working different classes overlap freely.
// jobs counts requests served in the current memoization epoch (reset on
// eviction) — a request after the first of an epoch can only hit memo
// entries some earlier request planted.
type warmAnalyzer struct {
	mu     sync.Mutex
	driver *corpus.Driver
	jobs   int64
}

// Server is the dependence-analysis daemon.
type Server struct {
	cfg         Config
	baseOpts    core.Options // cfg.Options + default-class budget, no StorePath
	maxDeadline time.Duration
	memoLimit   int // resolved MaxMemoEntries; 0 = never evict

	queue    chan *job
	execStop chan struct{}
	execWG   sync.WaitGroup

	// warm holds one long-lived analyzer per budget class (indexed like
	// wire.BudgetClasses). Every non-overridden analyze request is served
	// by its effective class's warm analyzer; option-overriding requests
	// get a throwaway driver instead so foreign result surfaces never
	// poison the shared memo tables.
	warm []*warmAnalyzer

	// store is the warm tier, attached to every warm driver.
	store *corpus.Store

	httpSrv  *http.Server
	lis      net.Listener
	start    time.Time
	closing  atomic.Bool
	snapStop chan struct{}
	snapWG   sync.WaitGroup
	stats    serverStats

	// gate, when non-nil, is received from before each job is processed —
	// a test hook that holds the executors still while tests fill the
	// queue deterministically.
	gate chan struct{}
}

// New validates the configuration and builds a server, loading the warm
// tier's snapshot when Config.StorePath names an existing file. Bad
// analysis options are rejected with the shared core.Options.Validate
// error shape.
func New(cfg Config) (*Server, error) {
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	classIdx, ok := wire.ClassIndex(cfg.DefaultClass)
	if !ok {
		return nil, fmt.Errorf("server: unknown default budget class %q", cfg.DefaultClass)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("server: queue depth must be positive, got %d", cfg.QueueDepth)
	}
	if cfg.Executors == 0 {
		cfg.Executors = 1
	}
	if cfg.Executors < 1 {
		return nil, fmt.Errorf("server: executors must be positive, got %d", cfg.Executors)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("server: max batch must be positive, got %d", cfg.MaxBatch)
	}
	memoLimit := cfg.MaxMemoEntries
	if memoLimit == 0 {
		memoLimit = defaultMaxMemoEntries
	}
	if memoLimit < 0 {
		memoLimit = 0 // never evict
	}
	maxDeadline := cfg.MaxDeadline
	if maxDeadline <= 0 {
		maxDeadline = defaultMaxDeadline
	}

	baseOpts := cfg.Options
	baseOpts.Budget = wire.BudgetClasses[classIdx].Budget
	baseOpts.StorePath = "" // persistence is the server's job, not the driver's

	s := &Server{
		cfg:         cfg,
		baseOpts:    baseOpts,
		maxDeadline: maxDeadline,
		memoLimit:   memoLimit,
		queue:       make(chan *job, cfg.QueueDepth),
		execStop:    make(chan struct{}),
		snapStop:    make(chan struct{}),
		start:       time.Now(),
	}

	s.store = corpus.NewStore(baseOpts)
	if cfg.StorePath != "" {
		var err error
		if s.store, err = corpus.OpenStore(cfg.StorePath, baseOpts); err != nil {
			return nil, err
		}
	}

	// One warm analyzer per budget class, all over the shared warm tier:
	// the default class's driver matches the store's signature, and every
	// other class's driver applies the cross-class rule (SetStore).
	s.warm = make([]*warmAnalyzer, len(wire.BudgetClasses))
	for i := range s.warm {
		o := baseOpts
		o.Budget = wire.BudgetClasses[i].Budget
		d := corpus.NewDriver(o, core.PipelineWorkers(baseOpts.Workers))
		if err := d.SetStore(s.store); err != nil {
			return nil, err
		}
		s.warm[i] = &warmAnalyzer{driver: d}
	}
	return s, nil
}

// Start listens on addr (host:port; port 0 picks a free one), launches the
// executor pool, the snapshot loop, and the HTTP server, and returns the
// bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler()}
	for i := 0; i < s.cfg.Executors; i++ {
		s.execWG.Add(1)
		go s.executor()
	}
	if s.cfg.StorePath != "" && s.cfg.SnapshotEvery > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	go func() {
		if err := s.httpSrv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails fatally before Shutdown; surface it on
			// stderr rather than dying silently.
			fmt.Fprintf(os.Stderr, "depserve: http serve: %v\n", err)
		}
	}()
	return lis.Addr().String(), nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown drains the service gracefully: new requests are shed with 429,
// in-flight and queued requests complete (bounded by ctx), executors are
// joined, and the warm tier is saved atomically. Idempotent; later calls
// return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closing.Swap(true) {
		return nil
	}
	var err error
	if s.httpSrv != nil {
		// Waits for every in-flight handler — and therefore for every
		// queued job, since handlers block on their reply.
		err = s.httpSrv.Shutdown(ctx)
	}
	close(s.execStop)
	s.execWG.Wait()
	close(s.snapStop)
	s.snapWG.Wait()
	if s.cfg.StorePath != "" {
		if serr := s.SaveStore(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// SaveStore snapshots the warm tier to Config.StorePath atomically (temp
// file + rename), skipping the write when nothing changed since the last
// successful save — so a failed snapshot is retried by the next one. No-op
// without a StorePath.
func (s *Server) SaveStore() error {
	if s.cfg.StorePath == "" {
		return nil
	}
	return s.store.SaveFile(s.cfg.StorePath)
}

// snapshotLoop periodically persists the warm tier.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SaveStore(); err != nil {
				fmt.Fprintf(os.Stderr, "depserve: store snapshot: %v\n", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// StaleStore returns why the file at Config.StorePath was set aside as
// stale at boot (corpus.Store.Stale), or nil; the warm tier then starts
// empty and the next snapshot replaces the file.
func (s *Server) StaleStore() error { return s.store.Stale() }

// StoreLen returns the warm tier's unit count (for statsz and tests).
func (s *Server) StoreLen() int { return s.store.Len() }

// memoEntries sums the current memo-table entry counts over every warm
// analyzer (for statsz and tests). Takes each analyzer's mutex in turn, so
// it may wait for an in-flight batch.
func (s *Server) memoEntries() int64 {
	var n int64
	for _, wa := range s.warm {
		wa.mu.Lock()
		n += int64(wa.driver.Analyzer().MemoLen())
		wa.mu.Unlock()
	}
	return n
}
