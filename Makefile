GO ?= go

# The likelihood-engine micro-benchmarks (incremental re-evaluation
# and parallel population scoring); see EXPERIMENTS.md "Performance".
# BENCH_PR2.json and BENCH_PR7.json hold their historical numbers; the
# BENCH_PR*.json files are kept as history and nothing regenerates
# them. perfbench/ (BENCHMARK.json) is the repository benchmark.
BENCH_PATTERN = SearchEval50|Search50|ParallelScore

# perfbench/ is a Go module of its own, so `go build ./...` never
# compiles it. The perfbench target vets and tests it with the
# environment perfbench/run.sh builds it under: every file the
# toolchain writes stays under .bench_build/.
BENCH_BUILD = $(CURDIR)/.bench_build
PERFBENCH_ENV = GOCACHE=$(BENCH_BUILD)/gocache GOTMPDIR=$(BENCH_BUILD)/tmp TMPDIR=$(BENCH_BUILD)/tmp \
	GOPATH=$(BENCH_BUILD)/gopath XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOFLAGS=-mod=mod GOTOOLCHAIN=local

# Machine-readable analyzer report: every finding, suppressed ones
# included and marked, for dashboards and suppression audits.
LINT_ARTIFACT = latticelint.json

.PHONY: all build vet lint lint-fixtures test race smoke faults crash dag scale overload perfbench check bench bench-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# latticelint is the project's own analyzer suite (cmd/latticelint):
# five per-package analyzers (determinism, errdrop, floatcmp,
# syncmisuse, deadassign) plus three whole-program dataflow analyzers
# (lockorder, goroleak, taintdet). One run writes the JSON artifact
# and exits non-zero on any unsuppressed finding; on failure, a second
# text-mode run prints the findings for humans.
lint:
	$(GO) run ./cmd/latticelint -json ./... > $(LINT_ARTIFACT) || { $(GO) run ./cmd/latticelint ./...; exit 1; }

# lint-fixtures runs the analyzer self-tests under the race detector:
# every analyzer against its bad/good fixture pair, the combined
# injector and WAL fixtures, the suppression-marking contract, and the
# loader edge cases (tests-only package, build-tag exclusion, syntax
# error).
lint-fixtures:
	$(GO) test -race -run 'TestAnalyzerFixtures|TestFaultsInjectorFixture|TestWALFixture|TestGoodFixturesClean|TestSuppressionMarked|TestLoader' ./internal/lint/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke boots the full grid binary on a loopback port, runs a fixed
# workload, scrapes /metrics and /trace over real HTTP, and fails if
# the exposition is empty or unparseable.
smoke:
	$(GO) run ./cmd/lattice -smoke

# bench runs the engine micro-benchmarks at measurement quality.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem .

# bench-smoke executes every benchmark body exactly once — a CI gate
# so benchmark code cannot rot.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x .

# faults runs the fault-injection scenario under the race detector:
# conservation (every job exactly one terminal state) and same-seed
# determinism under the default hostile schedule.
faults:
	$(GO) test -race -run TestFaultScenarioShape ./internal/experiments/

# crash runs the crash-recovery scenario under the race detector: the
# coordinator killed three times mid-batch (once over a torn log
# tail), recovered from the WAL each time, with conservation intact
# and the final journal digest bit-identical to an uninterrupted run.
crash:
	$(GO) test -race -run TestCrashScenarioShape ./internal/experiments/

# dag runs both workflow-engine scenarios under the race detector: the
# four-stage standard analysis as one typed DAG (readiness ordering,
# service-grid placement of short stages, conservation, same-seed
# determinism) and the same graph killed three times mid-workflow and
# recovered from the WAL with a bit-identical final digest.
dag:
	$(GO) test -race -run 'TestDagScenarioShape|TestDagCrashScenarioShape' ./internal/experiments/

# scale runs the coordinator-sharding scenario under the race
# detector: 10^5 simulated users through 1/2/4/8 shards with
# conservation and bit-identical same-seed twin digests at every
# shard count, strictly improving makespan 1→2→4, and a shard kill
# recovered from that shard's WAL alone, digest-equal to an
# uninterrupted twin.
scale:
	$(GO) test -race -timeout 30m -run TestScaleOutShape ./internal/experiments/

# overload runs the overload-protection scenario under the race
# detector: a 10× demand spike through protected 1- and 4-shard
# clusters (conservation including sheds, bit-identical same-seed twin
# digests, goodput ≥ 90% of the pre-spike rate, breakers tripping on
# the mid-spike brownout) against an unprotected baseline whose p99
# front-door wait blows up by ≥ 10×.
overload:
	$(GO) test -race -timeout 10m -run TestOverloadScenarioShape ./internal/experiments/

# perfbench vets and tests the benchmark module, so a signature change
# in the packages it drives cannot break the benchmark unnoticed.
perfbench:
	mkdir -p $(BENCH_BUILD)/tmp $(BENCH_BUILD)/config
	cd perfbench && env $(PERFBENCH_ENV) $(GO) vet ./... && env $(PERFBENCH_ENV) $(GO) test ./...

# check is the full correctness gate: compile, go vet, the project
# analyzers (failing on any unsuppressed finding), the analyzer
# fixture self-tests under -race, the test suite under the race
# detector (which includes the forest/BOINC concurrency stress tests),
# the fault-injection, crash-recovery, workflow, coordinator sharding
# and overload-protection scenarios under -race, the grid boot smoke
# that scrapes /metrics over real HTTP, one execution of every engine
# benchmark body so benchmark code cannot rot, and the benchmark
# module's vet and tests.
check: build vet lint lint-fixtures race faults crash dag scale overload smoke bench-smoke perfbench
