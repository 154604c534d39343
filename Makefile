GO ?= go

.PHONY: all build test vet lint vet-json vet-coverage race allocs check bench bench-smoke bench-json mclbench-check clean fuzz faults chaos

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: go vet, staticcheck when installed (offline
# sandboxes have no module proxy, so it is only mandatory in CI where
# the lint job installs it), and the in-tree mclegal-vet analyzer suite
# enforcing the determinism/aliasing/numeric/allocation/exhaustiveness,
# concurrency (goleak, lockguard, sharedwrite) and write-effect
# (writeset, snapshotsafe, aliasleak) invariants
# (docs/STATIC_ANALYSIS.md). Any diagnostic fails the target. The
# second mclegal-vet run is the self-check: the analysis machinery is
# held to its own rules.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs and enforces it)"; \
	fi
	$(GO) run ./cmd/mclegal-vet ./...
	$(GO) run ./cmd/mclegal-vet ./internal/analysis/...

# Machine-readable diagnostics: the same analyzer suite as lint, as a
# stable position-sorted JSON array (file/line/column/analyzer/message)
# for editor and CI-annotation tooling; the CI lint job archives this
# report. Exit codes match the text mode.
vet-json:
	$(GO) run ./cmd/mclegal-vet -json ./...

# Statement coverage of the analyzer suite over the module and its
# self-check: builds mclegal-vet with coverage counters (the main
# package must be in -coverpkg, or the binary writes none), runs it
# over ./... and ./internal/analysis/..., and prints every function
# neither run executed (the 0.0% lines of `go tool covdata func`).
# Report paths always appear, because a clean tree reports nothing; an
# acceptance rule that appears is code no site needs. Output goes to
# .vet-coverage/. An audit, not a gate: `check` does not run it.
VET_COVERAGE := .vet-coverage
vet-coverage:
	rm -rf $(VET_COVERAGE) && mkdir -p $(VET_COVERAGE)/data
	$(GO) build -cover -coverpkg=./cmd/mclegal-vet,./internal/analysis/... \
		-o $(VET_COVERAGE)/mclegal-vet ./cmd/mclegal-vet
	GOCOVERDIR=$(VET_COVERAGE)/data $(VET_COVERAGE)/mclegal-vet ./...
	GOCOVERDIR=$(VET_COVERAGE)/data $(VET_COVERAGE)/mclegal-vet ./internal/analysis/...
	$(GO) tool covdata func -i=$(VET_COVERAGE)/data | awk '$$NF == "0.0%"'

test:
	$(GO) test ./...

# The stress tests take several minutes each under the race detector,
# so raise Go's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# The allocation witnesses without the race detector, whose
# instrumentation allocates and whose sync.Pool drops items at random
# (so the pooled witnesses skip under -race, and `race` cannot enforce
# them): MGL's window evaluation, the simplex and the matching solver
# at 0 allocs per reused call, refine and maxdisp at 0 per run on a
# warm pool, eval.Audit and route.(*Checker).Count at 1 per call (the
# row-slot list), and bmark.Read in proportion to the design's objects.
# The pattern must keep matching every one of them (the witnesses are
# named *ZeroAlloc, the gates *Allocs*). `check` runs it.
allocs:
	$(GO) test -count=1 -run 'ZeroAlloc|Allocs' ./...

# Fuzz smoke: bounded runs of the .mcl parser fuzzer and its
# input-limits variant (the committed seed corpora always run as part
# of plain `go test`).
fuzz:
	$(GO) test -run 'FuzzRead$$' -fuzz 'FuzzRead$$' -fuzztime 20s ./internal/bmark/
	$(GO) test -run FuzzReadLimited -fuzz FuzzReadLimited -fuzztime 10s ./internal/bmark/

# The fault-injection recovery suites under the race detector, as a
# focused target: every injection point x every recovery policy must
# end legal or faithfully-reported partial. `race` (and therefore
# `check`) already covers these as part of the whole suite.
faults:
	$(GO) test -race -run 'Gate|Recovery|Fallback|BestEffort|Strict|Panic|Inject|Fault' \
		./internal/stage/ ./internal/flow/ ./internal/mgl/ ./internal/faults/

# The server chaos suite under the race detector: seeded storms of
# injected faults, deadline expiries, mid-request cancels and drains
# against mclegald's serving layer, plus the endpoint and daemon
# lifecycle tests. `race` (and therefore `check`) already covers these
# as part of the whole suite; this is the focused loop for iterating
# on the server.
chaos:
	$(GO) test -race -run 'Chaos|Drain|Overload|Panic|Deadline|Cancel|Shutdown' \
		./internal/serve/ ./cmd/mclegald/
	$(GO) test -race ./internal/serve/

# The full gate: lint (vet + staticcheck + mclegal-vet) + build + the
# whole suite under the race detector (includes the worker-count
# determinism, cancellation and fault-injection tests), the allocation
# witnesses without it, plus the fuzz smoke run.
check: lint build race allocs fuzz

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The request benchmark (mclbench/, BENCHMARK.json) is a Go module of
# its own that imports mclegal/internal/... through a replace
# directive, so neither `go vet ./...` nor `go test ./...` at the root
# compiles it. This target vets it and runs its smoke tests with the
# workspace off, so an internal API change that breaks the benchmark
# fails CI instead of the next benchmark run. CI runs it in the check
# job.
mclbench-check:
	cd mclbench && GOWORK=off $(GO) vet ./...
	cd mclbench && GOWORK=off $(GO) test ./...

# One-iteration run of the MGL throughput bench, the Table 2, Figure 6
# and ablation benches, plus the mcf solver sweep in smoke mode (tiny
# instances, one iteration per config, every instance certified
# optimal): catches bit-rot in the bench harnesses themselves without
# paying for a real measurement, and drives MGL under the options the
# request benchmark never sets (GPLeftToRight and WidestAreaFirst
# order, windows 6/16/48, quality growth off and 6, the MLL baseline's
# cost from current positions). BenchmarkTable1 and BenchmarkTable3
# stay out: MGL cannot legalize des_perf_1 under batched commits
# (ROADMAP item 1), and the fix for that adds them. CI runs this on
# every push.
bench-smoke:
	$(GO) test -bench 'MGLThroughput|Table2|Figure6|Ablation' -benchtime 1x -run '^$$' .
	$(GO) run ./cmd/benchjson -mode mcf -smoke -out /dev/null

# The trajectory files of the layers no request benchmark measures:
# the min-cost-flow solver layer (the production simplex on fresh and
# reused solvers, each instance certified optimal) into BENCH_mcf.json,
# and the mclegal-vet analyzer suite itself (one shared program load
# plus each analyzer's incremental cost) into BENCH_vet.json. Requests
# end to end are mclbench's (BENCHMARK.json). Compare the committed
# baselines against a fresh run to judge a perf change; see
# docs/PERFORMANCE.md.
bench-json:
	$(GO) run ./cmd/benchjson -mode mcf -out BENCH_mcf.json
	$(GO) run ./cmd/benchjson -mode vet -out BENCH_vet.json

clean:
	$(GO) clean ./...
