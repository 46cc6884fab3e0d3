// Command depserve runs the dependence-analysis service: a long-running
// HTTP daemon serving verdicts, direction/distance vectors, trip
// provenance, and cost counters as JSON over the versioned wire API.
//
//	depserve -addr :8177 -store /var/lib/depserve/warm.store
//
// Endpoints (see internal/wire for the schema, ARCHITECTURE.md "Service
// layer" for the design):
//
//	POST /v1/analyze  analyze posted DSL units as one corpus
//	POST /v1/corpus   analyze a server-local corpus (needs -corpus-root)
//	GET  /v1/healthz  liveness
//	GET  /v1/statsz   queue/store/degradation counters
//
// The process drains gracefully on SIGINT/SIGTERM: queued requests finish,
// the warm tier is saved atomically, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"exactdep"
	"exactdep/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit: 0 ok, 1 runtime error,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("depserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8177", "listen address (host:port; port 0 picks a free one)")
	vectors := fs.Bool("vectors", true, "compute direction and distance vectors")
	memo := fs.Bool("memo", true, "memoize repeated dependence problems within a request")
	cascade := fs.String("cascade", "full", "cascade pipeline: full (cost-ordered) or fm-only (cross-validation)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "per-request analysis workers (1 = serial)")
	class := fs.String("class", "", "default budget class (exhaustive, generous, standard, economy, minimal)")
	queueDepth := fs.Int("queue", 64, "admission queue depth; beyond it requests shed with 429")
	executors := fs.Int("executors", 1, "concurrent request executors")
	maxBatch := fs.Int("max-batch", 8, "max queued same-class requests coalesced into one warm-analyzer batch (1 = no coalescing)")
	memoEvict := fs.Int("memo-evict", 1<<20, "drop a warm analyzer's memo tables past this many entries (-1 = never evict)")
	storePath := fs.String("store", "", "persist the warm verdict tier at this path across restarts")
	snapshot := fs.Duration("snapshot", 30*time.Second, "periodic warm-tier save cadence (0 = only on shutdown)")
	maxDeadline := fs.Duration("max-deadline", 60*time.Second, "cap on any request's analysis deadline")
	corpusRoot := fs.String("corpus-root", "", "enable /v1/corpus over files under this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: depserve [flags]  (no positional arguments)")
		fs.Usage()
		return 2
	}

	srv, err := server.New(server.Config{
		Options: exactdep.Options{
			DirectionVectors: *vectors,
			PruneUnused:      *vectors,
			PruneDistance:    *vectors,
			Memoize:          *memo,
			ImprovedMemo:     *memo,
			Cascade:          *cascade,
			Workers:          *workers,
		},
		DefaultClass:   *class,
		QueueDepth:     *queueDepth,
		Executors:      *executors,
		MaxBatch:       *maxBatch,
		MaxMemoEntries: *memoEvict,
		StorePath:      *storePath,
		SnapshotEvery:  *snapshot,
		MaxDeadline:    *maxDeadline,
		CorpusRoot:     *corpusRoot,
	})
	if err != nil {
		fmt.Fprintf(stderr, "depserve: %v\n", err)
		return 2
	}

	if err := srv.StaleStore(); err != nil {
		fmt.Fprintf(stderr, "depserve: %v; starting with an empty warm tier\n", err)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "depserve: %v\n", err)
		return 1
	}
	// The load generator and serve-smoke parse this exact line to find the
	// bound port; keep the format stable.
	fmt.Fprintf(stdout, "depserve: listening on %s\n", bound)
	if f, ok := stdout.(interface{ Sync() error }); ok {
		f.Sync()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(stdout, "depserve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "depserve: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "depserve: stopped")
	return 0
}
