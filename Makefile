GO ?= go

# Packages where races would be silent correctness bugs: the closure
# hasher and the interface cache, the stream cache shared across
# concurrent compilations, the concurrent driver, the DKY symbol
# tables, the Supervisor scheduler, the fault-injection plans shared
# across task goroutines, the observability layer hooked into every
# task transition, the profiler consuming its dumps while compilations
# run, the concurrent static analyzer whose findings must be
# schedule-independent, the event primitive's lock-free fired fast
# path, the token queues' producer-owned blocks, the pooled
# statement-tree arenas, and the free lists every compilation takes
# them from.
RACE_PKGS = ./internal/pool ./internal/ast ./internal/impscan ./internal/ifacecache ./internal/streamcache ./internal/core ./internal/symtab ./internal/sched ./internal/faultinject ./internal/obs ./internal/profile ./internal/check ./internal/event ./internal/tokq ./cmd/m2cd ./cmd/m2load

# Seeds for the chaos suite's seeded matrix (see chaos_test.go); the
# suite also hand-arms every injection point regardless of seeds.
CHAOS_SEEDS ?= 1,2,3,4,5,6,7,8,13,21,34,55,89,144

.PHONY: check vet build test race chaos smoke serve-smoke profile lint experiments-smoke bench-frontend bench-objcode bench-build clean

check: vet build test race chaos smoke serve-smoke profile lint experiments-smoke bench-frontend bench-objcode bench-build

# Standard vet, then the repo's own concurrency-invariant analyzers
# (internal/lint) via the go vet vettool protocol: raw event fires,
# un-nil-guarded obs methods, wall-clock reads in deterministic
# packages, undocumented mutex/chan fields.  Every Go file outside
# testdata/ (whose fixtures may be odd on purpose) must be gofmt-clean.
vet:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o bin/m2vet ./cmd/m2vet
	$(GO) vet -vettool=$(abspath bin/m2vet) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run Chaos -count=1 .

# End-to-end observability smoke: compile an example module with -trace
# and validate the Chrome trace-event JSON it wrote.
smoke:
	$(GO) run ./cmd/m2c -I examples/modules -q -trace /tmp/m2c_smoke_trace.json Demo
	$(GO) run ./cmd/tracecheck /tmp/m2c_smoke_trace.json

# End-to-end serving smoke: start the m2cd daemon on an ephemeral
# port, saturate it with an m2load burst (byte-identity enforced,
# overload shed with 429), then SIGTERM mid-load and assert the
# healthz/readyz flip, a clean drain (exit 0), the final metrics
# snapshot, and a schema-valid m2load report (written to a temporary
# directory).
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end profiler smoke: compile an example module with the
# critical-path profiler and the what-if replay, then cross-check the
# trace export (fires/waits/task IDs) with tracecheck.
profile:
	$(GO) run ./cmd/m2c -I examples/modules -q -profile -profile-json /tmp/m2c_profile.json Fib
	$(GO) run ./cmd/m2c -I examples/modules -q -whatif -workers 4 -trace /tmp/m2c_whatif_trace.json Fib
	$(GO) run ./cmd/tracecheck /tmp/m2c_whatif_trace.json

# Static analysis over the example modules: the clean fixtures must
# stay clean (-werror), and the findings fixture must match its golden
# file (also enforced, per DKY strategy, by lint_golden_test.go).
lint:
	$(GO) run ./cmd/m2lint -I examples/modules -werror LintClean Demo
	$(GO) run ./cmd/m2lint -I examples/modules LintFindings | diff examples/modules/LintFindings.golden -

# The §4 reproduction at the CLI surface: m2bench at a small scale
# must run and print byte-identical output twice (every number in it
# comes from deterministic work units).
EXPERIMENTS_SMOKE = $(GO) run ./cmd/m2bench -scale 0.05 -table1 -table2 -table3 -fig7 -dky -headers -longshort -boost -overhead
experiments-smoke:
	$(EXPERIMENTS_SMOKE) > /tmp/m2bench_smoke_1.txt
	$(EXPERIMENTS_SMOKE) > /tmp/m2bench_smoke_2.txt
	cmp /tmp/m2bench_smoke_1.txt /tmp/m2bench_smoke_2.txt

# Front-end layer microbenchmarks (lexer, token queue, splitter with and
# without the stream cache's Keyer) on one fixed generated program,
# reporting Mtok/s and allocs/op, plus statement parsing into a
# recycled arena; then the free lists' tests and their GC-survival
# benchmark (B/op of a take between collections, against sync.Pool).
# One iteration each: inside `make check` this is a smoke step that
# keeps them compiling and running; raise -benchtime to measure.
bench-frontend:
	$(GO) test -run='^$$' -bench='^(BenchmarkLexerRun|BenchmarkSplitObserved|BenchmarkAppendRead|BenchmarkParseBody)$$' -benchtime=1x -benchmem \
		./internal/lexer ./internal/tokq ./internal/splitter ./internal/parser
	$(GO) test -count=1 -bench='^BenchmarkSurvivesGC$$' -benchtime=1x -benchmem ./internal/pool

# Object-code layer microbenchmarks: a sequential compile of one fixed
# generated program (B/op, allocs/op, retained code bytes), the listing
# renderer against the fmt reference it replaced (MB/s), and the stream
# cache's relocating copy.  One iteration each, as bench-frontend.
bench-objcode:
	$(GO) test -run='^$$' -bench='^(BenchmarkCodegenCompile|BenchmarkListing|BenchmarkApplyFixups)$$' -benchtime=1x \
		./internal/codegen ./internal/vm ./internal/streamcache

# The benchmark is a module of its own that imports internal packages
# (token, source, impscan, ...), so an internal-API change can break it
# without breaking anything in this module: build and vet it here.
bench-build:
	$(GO) build -C benchmark -o /dev/null ./... && $(GO) vet -C benchmark ./...

clean:
	$(GO) clean ./...
