GO ?= go

# Packages where races would be silent correctness bugs: the closure
# hasher and the interface cache, the stream cache shared across
# concurrent compilations, the concurrent driver, the DKY symbol
# tables, the Supervisor scheduler and the lanes it passes from task to
# task, the trace recorder that takes each task's record buffer when it
# finishes (the one recorder the Supervisor reports to), the
# fault-injection plans shared across task goroutines, the observer
# rendering those traces and the profiler reading them while
# compilations run, the concurrent static analyzer whose findings must be
# schedule-independent, the event primitive's lock-free fired fast
# path, the token queues' producer-owned blocks, the pooled
# statement-tree arenas, the free lists every compilation takes them
# from, and the file snapshot and object registry every task of a
# compilation shares.
RACE_PKGS = ./internal/pool ./internal/ast ./internal/impscan ./internal/ifacecache ./internal/streamcache ./internal/core ./internal/symtab ./internal/sched ./internal/ctrace ./internal/faultinject ./internal/obs ./internal/profile ./internal/check ./internal/event ./internal/tokq ./internal/source ./internal/vm ./cmd/m2cd

# Seeds for the chaos suite's seeded matrix (see chaos_test.go); the
# suite also hand-arms every injection point regardless of seeds.
CHAOS_SEEDS ?= 1,2,3,4,5,6,7,8,13,21,34,55,89,144

.PHONY: check vet build test race chaos fuzz-smoke smoke serve-smoke profile lint experiments-smoke bench-frontend bench-objcode bench-build loc clean

check: vet build test race chaos fuzz-smoke smoke serve-smoke profile lint experiments-smoke bench-frontend bench-objcode bench-build

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

# The scheduler's, token queues', symbol tables' and interface cache's
# tests run ten times more under the race detector: the scheduler's one
# mutex guards the ready heap, every slot handoff and the producer
# boost, a token queue's mutex guards the growth event a waiting reader
# makes, sealed scopes and published cache entries are read without a
# mutex, and a lock-discipline slip shows only under repetition.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 ./internal/sched
	$(GO) test -race -count=10 ./internal/tokq
	$(GO) test -race -count=10 ./internal/symtab
	$(GO) test -race -count=10 ./internal/ifacecache ./internal/impscan

chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run Chaos -count=1 .

# Every fuzz target in the module, 10 s each past its seed corpus
# (go test -fuzz takes one target of one package at a time).
fuzz-smoke:
	for f in $$(grep -rl --include='*_test.go' --exclude-dir=testdata '^func Fuzz' cmd internal *.go); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./$$(dirname $$f) || exit 1; done; done

# End-to-end observability smoke: m2c -trace on an example module, then
# -run, which compiles Demo and Fib into one Observer.  m2c validates a
# trace before writing it and exits 1 on a broken one (every non-external
# wait names a fired event, IDs in range); each must hold a span.
smoke:
	$(GO) run ./cmd/m2c -I examples/modules -q -trace /tmp/m2c_smoke_trace.json Demo
	grep -q '"ph": "X"' /tmp/m2c_smoke_trace.json
	$(GO) run ./cmd/m2c -I examples/modules -q -run -trace /tmp/m2c_smoke_run_trace.json Demo
	grep -q '"ph": "X"' /tmp/m2c_smoke_run_trace.json

# End-to-end serving smoke: start the m2cd daemon on an ephemeral
# port, fetch a validated trace, saturate it with a curl burst (every
# code 200, 429 or 503, every 200 body byte-identical), then SIGTERM
# mid-load and assert the healthz/readyz flip, a clean drain (exit 0)
# and the final metrics snapshot.  Scratch files go to a temporary
# directory.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end profiler smoke: compile an example module with the
# critical-path profiler, then with the what-if replay and -trace, which
# m2c validates before writing (fires/waits/task IDs; exit 1 on a
# broken trace); replay once more under Avoidance, which only the
# trace's lookups and scope gates drive.
profile:
	$(GO) run ./cmd/m2c -I examples/modules -q -profile -profile-json /tmp/m2c_profile.json Fib
	$(GO) run ./cmd/m2c -I examples/modules -q -whatif -workers 4 -trace /tmp/m2c_whatif_trace.json Fib
	grep -q '"ph": "X"' /tmp/m2c_whatif_trace.json
	$(GO) run ./cmd/m2c -I examples/modules -q -whatif -dky avoidance Fib

# Static analysis over the example modules, m2c -lint once per module:
# the clean fixtures must stay clean (-werror), and the findings fixture
# must match its golden file (also enforced, per DKY strategy, by
# lint_golden_test.go).
lint:
	$(GO) run ./cmd/m2c -I examples/modules -lint -werror LintClean
	$(GO) run ./cmd/m2c -I examples/modules -lint -werror Demo
	$(GO) run ./cmd/m2c -I examples/modules -lint LintFindings | diff examples/modules/LintFindings.golden -

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
	$(GO) test -run='^$$' -bench='^(BenchmarkLexerRun|BenchmarkSplitObserved|BenchmarkAppendRead|BenchmarkParseBody|BenchmarkParseDecls)$$' -benchtime=1x -benchmem \
		./internal/lexer ./internal/tokq ./internal/splitter ./internal/parser
	$(GO) test -count=1 -bench='^BenchmarkSurvivesGC$$' -benchtime=1x -benchmem ./internal/pool

# Object-code layer microbenchmarks: a sequential compile of one fixed
# generated program (B/op, allocs/op, retained code bytes), declaration
# analysis alone of the same program (B/op, allocs/op), the listing
# renderer against the fmt reference it replaced (MB/s), the machine
# running Synth and an array-indexing suite program (Minstr/s), the
# stream cache's relocating copy, a warm recompile with every stream a
# cache hit (B/op, allocs/op: keys, probe, interface installs and
# adopted segments), a warm repeated m2cd /compile and /lint through
# the handler (B/op, allocs/op: the listing escaped into the pooled
# response; the lint's interfaces and their facts from the cache), the
# lint merge barrier over every suite program's fact tables (B/op,
# allocs/op), and the Supervisor's cost of one task, ungated and with
# two gates (B/op, allocs/op).  One iteration each, as bench-frontend.
bench-objcode:
	$(GO) test -run='^$$' -bench='^(BenchmarkCodegenCompile|BenchmarkDeclAnalysis|BenchmarkListing|BenchmarkExecute|BenchmarkApplyFixups|BenchmarkWarmProbe|BenchmarkServeRepeat|BenchmarkServeLint|BenchmarkLintMerge|BenchmarkSpawn)$$' -benchtime=1x \
		./internal/codegen ./internal/sema ./internal/vm ./internal/streamcache ./internal/core ./cmd/m2cd ./internal/check ./internal/sched

# The benchmark is a module of its own that imports internal packages
# (token, source, impscan, ...), so an internal-API change can break it
# without breaking anything in this module: build and vet it here.
bench-build:
	$(GO) build -C benchmark -o /dev/null ./... && $(GO) vet -C benchmark ./...

# The house count of non-test lines: Go outside benchmark/ and testdata
# without _test.go files, plus scripts/ and this Makefile.  Not a gate.
loc:
	@{ find . -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*' -not -name '*_test.go'; \
		find scripts -type f; echo Makefile; } | xargs cat | wc -l

clean:
	$(GO) clean ./...
