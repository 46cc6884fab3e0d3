GO ?= go

.PHONY: build test vet fmt race check allocgate benchmark-selftest bench bench-json benchcmp benchcmp-gate serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# race runs every test under the race detector, then repeats the verdict
# store hammer (goroutines mixing Lookup, Put, Len and SaveFile on one
# shared store) ten times.
race:
	$(GO) test -race -timeout 120s ./...
	$(GO) test -race -count=10 -run TestStoreHammer ./internal/corpus

# allocgate re-runs the steady-state allocation assertions without the race
# detector (they skip themselves under it, since the instrumentation
# allocates), so the zero-allocation cascade path, the zero-allocation
# memo path (encode + lookup + hit), the zero-allocation Fourier–Motzkin
# solve, the clone-free refinement walk, and the map-free lexer stay gated
# even though the main test run is race-enabled.
allocgate:
	$(GO) test ./internal/dtest -run 'TestCascadeZeroAllocs|TestRunTracedReusesScratch|TestBudgetZeroAllocs|TestFMSolveZeroAllocs'
	$(GO) test ./internal/memo -run 'TestEncoderZeroAllocs|TestMemoHitZeroAllocs'
	$(GO) test ./internal/depvec -run 'TestRefineZeroAllocs'
	$(GO) test ./internal/lang -run 'TestLexerZeroAllocs'

# benchmark-selftest vets and tests the benchmark module (benchmark/, a
# separate Go module the root go test ./... never reaches): its generator,
# verdict reference, pinned digests and ledger arithmetic.
benchmark-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the CI gate: vet and the gofmt gate plus race-enabled tests, so
# the concurrent driver (core.AnalyzeAll, memo.ShardedTable, the shared
# verdict store) is race-checked on every run, plus the allocation-regression
# gate, the benchmark module's self-tests, and the service smoke (a real
# depserve process loaded by depload). Set
# PERFGATE=1 to also run the wall-clock perf gate (benchcmp-gate) — opt-in
# because ns/op on a shared or throttled host is too noisy to block every
# CI run on.
check: vet fmt race allocgate benchmark-selftest serve-smoke
	@if [ "$(PERFGATE)" = "1" ]; then $(MAKE) benchcmp-gate; fi

# serve-smoke boots a real depserve process on a random port (small queue,
# so the burst exercises admission control), replays a short rated run plus
# an overload burst with depload, and requires zero 5xx responses and
# served verdicts byte-identical to a local batch run. depload SIGTERMs the
# server at the end and requires a clean drain, so graceful shutdown is
# covered by a real process, not just the in-process tests. The second run
# turns on two executors with coalescing (max-batch 8) so the warm-analyzer
# batch path and the narrowed store lock are exercised — and byte-checked —
# by a real process too.
serve-smoke:
	$(GO) build -o .smoke_depserve ./cmd/depserve
	$(GO) run ./cmd/depload -spawn ./.smoke_depserve -spawn-flags "-queue 8" \
		-rate 40 -duration 2s -burst 24 -large-nests 16 -check -out .smoke_serve.json
	$(GO) run ./cmd/depload -spawn ./.smoke_depserve -spawn-flags "-queue 8 -executors 2 -max-batch 8" \
		-rate 40 -duration 2s -burst 24 -large-nests 16 -check -out .smoke_serve.json
	@rm -f .smoke_depserve .smoke_serve.json

# bench runs the paper-evaluation benchmarks (root package), the front-end
# layer benchmarks (parse, lower, pair enumeration over LargeCorpus-shaped
# sources), and the cascade, memo, and refinement stage/allocation
# microbenchmarks with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/lang ./internal/opt ./internal/refs ./internal/dtest ./internal/memo ./internal/depvec

# bench-json writes the machine-readable perf baseline (ns/op, allocs/op,
# memo hit rates over the suite, budget-trip profile of the FM-hard
# adversarial suite, refinement counter profile, cold large-corpus scaling,
# incremental corpus cold/warm split, pipelined corpus cold/warm from mem
# and dir sources with per-stage timing, serve request-model split with a
# per-request latency profile, host metadata) so future PRs can diff
# against it.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json

# benchcmp diffs the previous PR's committed baseline against this PR's.
benchcmp:
	$(GO) run ./cmd/benchcmp BENCH_PR9.json BENCH_PR10.json

# BASELINE is the committed perf baseline benchcmp-gate measures against.
BASELINE := BENCH_PR10.json

# benchcmp-gate re-measures the gated benchmarks (just those, via the
# benchjson -only filter) and fails if one regressed more than 15% in ns/op
# against the committed baseline. The corpus warm path is the incremental
# layer's headline number, and the warm Dir-backed pipeline run is the
# front-end (parse+fingerprint+probe) twin of it, so both are gated
# alongside the memo-hot pass and the warm serve request model (the
# depserve executor's cross-request memo dividend). A missing baseline file fails loudly up
# front rather than as a confusing benchcmp read error — PERFGATE=1 on
# check means someone asked for the gate, so silently skipping it would be
# worse. Opt into the gate from check with PERFGATE=1.
benchcmp-gate:
	@if [ ! -f $(BASELINE) ]; then \
		echo "benchcmp-gate: baseline $(BASELINE) is missing — run 'make bench-json' and commit it"; \
		exit 1; \
	fi
	$(GO) run ./cmd/benchjson -only analyze_all_memo_hot -out .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate analyze_all_memo_hot_workers_4 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchjson -only corpus_incremental_warm -out .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate corpus_incremental_warm_1pct_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchjson -only corpus_pipeline_warm_dir_workers_1 -out .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate corpus_pipeline_warm_dir_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	$(GO) run ./cmd/benchjson -only serve_batch_warm -out .bench_gate.json
	$(GO) run ./cmd/benchcmp -gate serve_batch_warm_workers_1 -tolerance 15 $(BASELINE) .bench_gate.json
	@rm -f .bench_gate.json
