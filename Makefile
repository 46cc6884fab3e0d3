GO ?= go

.PHONY: build test vet fmt loc race check allocgate fuzz-smoke benchmark-selftest bench bench-smoke bench-json benchcmp benchcmp-gate serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go line count outside benchmark/ (a separate
# module) and .bench_build/ (its build output): the size a simplicity
# change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# race runs every test under the race detector, then repeats four hammers
# ten times each: the shared memo table's in-place publication (lock-free
# readers against inserting, growing writers), its many-writer overlap, the
# in-flight leader election, and the verdict store (goroutines mixing
# Lookup, Put, Len and SaveFile on one shared store; TestStoreHammer also
# selects TestStoreHammerFileIndex, drivers sharing one store's file
# index).
race:
	$(GO) test -race -timeout 120s ./...
	$(GO) test -race -count=10 -run 'TestShardedTableLockFreeStress|TestShardedTableHammer|TestInFlightHammer' ./internal/memo
	$(GO) test -race -count=10 -run TestStoreHammer ./internal/corpus

# allocgate re-runs the steady-state allocation assertions without the race
# detector (they skip themselves under it, since the instrumentation
# allocates), so the zero-allocation cascade path, the zero-allocation
# memo path (encode + lookup + hit), the analyzer's memo-hit path (a warm
# run allocates a fixed number of times per call, however many candidates
# hit), the bounded per-insert cost of the shared memo table, the zero-allocation Fourier–Motzkin solve, the
# clone-free refinement walk, the map-free lexer, the zero-allocation
# problem build (renamed bounds carved from the builder's arena), the
# zero-allocation Extended GCD step (a warm Preprocessor), the
# verdict store's per-unit slabs (a fixed number of allocations per unit to
# load a snapshot and to serve a unit, however many results it holds) and
# its file index (serving an unchanged file without building its IR, in a
# fixed number of allocations however many pairs it holds) stay gated even
# though the main test run is race-enabled.
allocgate:
	$(GO) test ./internal/dtest -run 'TestCascadeZeroAllocs|TestRunTracedReusesScratch|TestBudgetZeroAllocs|TestFMSolveZeroAllocs'
	$(GO) test ./internal/memo -run 'TestEncoderZeroAllocs|TestMemoHitZeroAllocs|TestShardedInsertAllocs'
	$(GO) test ./internal/core -run 'TestAnalyzeAllMemoHotAllocs'
	$(GO) test ./internal/depvec -run 'TestRefineZeroAllocs'
	$(GO) test ./internal/lang -run 'TestLexerZeroAllocs'
	$(GO) test ./internal/system -run 'TestBuildZeroAllocs|TestPreprocessZeroAllocs'
	$(GO) test ./internal/corpus -run 'TestLoadStoreAllocs|TestServeAllocs|TestIndexHitAllocs'

# fuzz-smoke fuzzes every decoder of outside input for 10 s each: the DSL
# parser, and the verdict store's and memo file's shared binary decoder
# through LoadStore and LoadMemo. Each starts from its seed corpus (the
# suite's sources; a real snapshot of each file and every corrupt-record
# test case).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzLoadStore$$' -fuzztime 10s ./internal/corpus
	$(GO) test -run '^$$' -fuzz '^FuzzLoadMemo$$' -fuzztime 10s ./internal/core

# benchmark-selftest vets and tests the benchmark module (benchmark/, a
# separate Go module the root go test ./... never reaches): its generator,
# verdict reference, pinned digests and ledger arithmetic.
benchmark-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the CI gate: vet and the gofmt gate plus race-enabled tests, so
# the concurrent driver (core.AnalyzeAll, memo.ShardedTable, memo.InFlight,
# the shared verdict store) is race-checked on every run — their hammers ten
# times over — plus the allocation-regression gate, ten seconds of fuzzing
# per decoder (fuzz-smoke), the benchmark module's self-tests, one run of
# every benchmark body (bench-smoke), and the service smoke (a real
# depserve process loaded by depload). Set PERFGATE=1 to also
# run the wall-clock perf gate (benchcmp-gate) — opt-in because ns/op on a
# shared or throttled host is too noisy to block every CI run on.
check: vet fmt race allocgate fuzz-smoke benchmark-selftest bench-smoke serve-smoke
	@if [ "$(PERFGATE)" = "1" ]; then $(MAKE) benchcmp-gate; fi

# serve-smoke boots a real depserve process on a random port (small queue,
# so the burst exercises admission control), replays a short rated run plus
# an overload burst with depload, and requires zero 5xx responses, a load
# degradation in any phase that was shed (the queue degrades before it
# sheds), and served verdicts byte-identical to a local batch run. depload
# SIGTERMs the server at the end and requires a clean drain, so graceful
# shutdown is covered by a real process, not just the in-process tests. The
# second run turns on two executors with coalescing (max-batch 8) so the
# warm-analyzer batch path and the narrowed store lock are exercised — and
# byte-checked — by a real process too.
serve-smoke:
	$(GO) build -o .smoke_depserve ./cmd/depserve
	$(GO) run ./cmd/depload -spawn ./.smoke_depserve -spawn-flags "-queue 8" \
		-rate 40 -duration 2s -burst 24 -large-nests 16 -check
	$(GO) run ./cmd/depload -spawn ./.smoke_depserve -spawn-flags "-queue 8 -executors 2 -max-batch 8" \
		-rate 40 -duration 2s -burst 24 -large-nests 16 -check
	@rm -f .smoke_depserve

# BENCH_PKGS holds every package with Benchmark functions: the
# paper-evaluation, corpus and serve benchmarks (root package), the
# front-end layers (parse, lower, pair enumeration over LargeCorpus-shaped
# sources), the problem build plus Extended GCD, the cascade, memo and
# refinement stage/allocation microbenchmarks, the memo file's save and
# load, a warm call against a large memo table, and the verdict store's
# load, save and serve, the fingerprint walk and the file read + digest.
# bench, bench-smoke, bench-json and benchcmp-gate all run this one list.
BENCH_PKGS := . ./internal/lang ./internal/opt ./internal/refs ./internal/system ./internal/dtest ./internal/memo ./internal/depvec ./internal/core ./internal/corpus

# bench runs every benchmark once, human-readable, with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# bench-smoke runs every benchmark body exactly once, so the assertions the
# bodies hold (a 1%-dirty warm run re-solves exactly 41 units, warm runs
# re-solve none, each §7 problem is decided by its own test, the concurrent
# suite is byte-identical across worker counts) run in CI.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# bench-json records the perf baseline: five samples of every benchmark,
# reduced by cmd/benchjson to one median record each (ns/op, B/op,
# allocs/op, any reported metrics) plus the host section. The run takes
# longer than go test's default 10-minute timeout, hence -timeout.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 -timeout 60m $(BENCH_PKGS) 2>&1 \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_PR22.json

# benchcmp diffs the previous committed baseline against the newest.
benchcmp:
	$(GO) run ./cmd/benchcmp BENCH_PR21.json BENCH_PR22.json

# BASELINE is the committed perf baseline benchcmp-gate measures against,
# recorded on the 2-vCPU host the end-to-end benchmark runs on.
BASELINE := BENCH_PR22.json

# GATED lists the gated benchmarks as go test -bench patterns. The corpus
# warm path is the incremental layer's headline number, and the warm
# Dir-backed pipeline run is its file-backed twin — every file unchanged,
# so it measures read + digest + file index probe, no parse — so both are
# gated alongside the memo-hot pass and the warm serve request model (the
# depserve executor's cross-request memo dividend).
GATED := AnalyzeAllMemoHot/workers=4 CorpusIncremental/warm_1pct/workers=1 \
	CorpusPipeline/warm/dir/workers=1 ServeBatch/warm/workers=1

# benchcmp-gate re-measures the gated benchmarks, five samples each as
# bench-json takes them, and fails if one's median regressed more than 15%
# in ns/op against the committed baseline. Each pattern runs in its own go
# test: -bench splits a pattern at '/' and matches level by level, so one
# alternation cannot select sub-benchmarks of different depths. A missing
# baseline file fails loudly up front rather than as a confusing benchcmp
# read error — PERFGATE=1 on check means someone asked for the gate, so
# silently skipping it would be worse. Opt into the gate from check with
# PERFGATE=1.
benchcmp-gate:
	@if [ ! -f $(BASELINE) ]; then \
		echo "benchcmp-gate: baseline $(BASELINE) is missing — run 'make bench-json' and commit it"; \
		exit 1; \
	fi
	for p in $(GATED); do \
		$(GO) test -run '^$$' -bench "^Benchmark$$p\$$" -benchmem -count 5 $(BENCH_PKGS) 2>&1; \
	done | tee /dev/stderr | $(GO) run ./cmd/benchjson -out .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate analyze_all_memo_hot_workers_4 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate corpus_incremental_warm_1pct_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate corpus_pipeline_warm_dir_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate serve_batch_warm_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	@rm -f .bench_gate.json
