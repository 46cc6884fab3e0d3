// Command exactbench is the repository's benchmark: three seeded workloads
// run through the program's public entry points (the corpus facade, the
// corpus driver, and a real depserve process), every verdict checked
// against an independent reference, and a separate traced run that splits
// each op's time across the program's layers. README.md explains the
// workloads, the metrics and how to run it; run.sh builds and starts it:
//
//	bash benchmark/run.sh --workload corpus-cold --seed 7 --seconds 20 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/wire"
)

// metricDecl is one metric of the JSON result line, with its unit.
type metricDecl struct{ name, unit string }

// endToEnd and perLayer are the metrics of the JSON result line (--trace 0
// and --trace 1), in BENCHMARK.json's order and with its units.
var endToEnd = []metricDecl{
	{"setup_s", "s"}, {"cpu_ms", "ms"}, {"rss_mb", "MB"},
}

var perLayer = []metricDecl{
	{"trace.op_ms", "ms"}, {"trace.overhead_pct", "%"},
	{"wire.decode_ms", "ms"}, {"corpus.read_ms", "ms"}, {"lang.parse_ms", "ms"}, {"opt.lower_ms", "ms"}, {"refs.pairs_ms", "ms"},
	{"corpus.load_store_ms", "ms"}, {"corpus.fingerprint_ms", "ms"}, {"corpus.probe_ms", "ms"},
	{"core.solve_ms", "ms"}, {"core.other_ms", "ms"},
	{"dtest.svpc_ms", "ms"}, {"dtest.acyclic_ms", "ms"}, {"dtest.residue_ms", "ms"}, {"dtest.fm_ms", "ms"},
	{"corpus.emit_ms", "ms"}, {"corpus.put_ms", "ms"}, {"corpus.run_other_ms", "ms"}, {"corpus.save_store_ms", "ms"},
	{"wire.encode_ms", "ms"}, {"unattributed_ms", "ms"}, {"server.unattributed_ms", "ms"},
	{"lang.mb_per_s", "MB/s"}, {"refs.pairs", "count"}, {"corpus.store_kb", "KB"}, {"corpus.reused_ratio", "ratio"},
	{"core.pairs_solved", "count"}, {"system.gcd_independent", "count"}, {"system.constant", "count"},
	{"dtest.svpc_decided_ratio", "ratio"}, {"dtest.acyclic_decided_ratio", "ratio"},
	{"dtest.residue_decided_ratio", "ratio"}, {"dtest.fm_decided_ratio", "ratio"}, {"dtest.budget_trips", "count"},
	{"memo.full_hit_ratio", "ratio"}, {"memo.l1_hit_ratio", "ratio"}, {"memo.eq_hit_ratio", "ratio"}, {"memo.dir_hit_ratio", "ratio"},
	{"memo.unique_full", "count"}, {"memo.inflight_waits", "count"},
	{"depvec.dir_tests", "count"}, {"depvec.trail_pushes", "count"}, {"depvec.vectors", "count"},
	{"wire.response_kb", "KB"},
	{"server.batch_mean", "count"}, {"server.coalesced_ratio", "ratio"}, {"server.store_hit_ratio", "ratio"},
	{"server.cross_request_memo_hits", "count"}, {"server.degraded", "count"}, {"server.shed", "count"}, {"server.cancelled", "count"},
	{"gen.late_ms", "ms"}, {"host.steal_pct", "%"},
}

// env is one run's settings.
type env struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // this run's scratch directory, removed at exit
	depserve string // depserve binary (serve-mixed)
	nproc    int
	log      io.Writer // human-readable report
}

// outcome counts the ops of one run and keeps the first mismatches.
type outcome struct {
	attempted, failed int
	problems          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*report, *outcome, error){
	"corpus-edit": runCorpusEdit,
	"corpus-cold": runCorpusCold,
	"serve-mixed": runServeMixed,
}

// measuredOptions is the configuration every workload measures: depserve's
// defaults (which are also the facade's full configuration) at the
// default budget class, so one warm-tier snapshot signature fits all.
func measuredOptions(workers int) core.Options {
	idx, _ := wire.ClassIndex("")
	return core.Options{
		DirectionVectors: true,
		PruneUnused:      true,
		PruneDistance:    true,
		Memoize:          true,
		ImprovedMemo:     true,
		Cascade:          "full",
		Workers:          workers,
		Budget:           wire.BudgetClasses[idx].Budget,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"corpus-edit", "corpus-cold", "serve-mixed"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exactbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "corpus-edit, corpus-cold, serve-mixed, or all (each in turn)")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for this run's files")
	depserve := fs.String("depserve", filepath.Join(".bench_build", "depserve"), "depserve binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	if workloads[names[0]] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "exactbench: need --workload (corpus-edit, corpus-cold, serve-mixed, all), --seconds > 0, --trace 0|1\n")
		return 2
	}
	code := 0
	for _, n := range names {
		e := &env{
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			depserve: *depserve,
			nproc:    runtime.NumCPU(),
			log:      stdout,
		}
		code = max(code, runWorkload(n, e, *workdir, stdout, stderr))
	}
	return code
}

// runWorkload runs one workload in a fresh scratch directory and prints
// its report, ending with the JSON result line.
func runWorkload(name string, e *env, workdir string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "exactbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "exactbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	fmt.Fprintf(stdout, "exactbench: workload=%s seed=%d seconds=%g trace=%v\n", name, e.seed, e.seconds.Seconds(), e.trace)
	rep, oc, err := workloads[name](e)
	if err != nil {
		fmt.Fprintf(stderr, "exactbench: %s: %v\n", name, err)
		return 1
	}
	decls, title := endToEnd, "end-to-end"
	if e.trace {
		decls, title = perLayer, "per-layer"
	}
	rep.print(stdout, name+" "+title)
	for _, p := range oc.problems {
		fmt.Fprintf(stderr, "exactbench: mismatch: %s\n", p)
	}
	line, err := rep.jsonResult(decls, oc.failed == 0, oc.attempted, oc.failed)
	if err != nil {
		fmt.Fprintf(stderr, "exactbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if oc.failed > 0 {
		return 1
	}
	return 0
}

// errNoOps is returned when a timed phase completed nothing.
var errNoOps = errors.New("no op completed in the timed phase")

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
