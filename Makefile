GO ?= go

.PHONY: build test race vet bench bench-layers bench-compare bench-10m profile seed-audit doc-audit chaos test-federation test-reuse fuzz-smoke loc exhibit-digest exhibit-stable examples-stable digest-print digest-record digest-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# One iteration per exhibit: checks the benchmarks run end to end and
# prints the per-exhibit wall times and allocations (compare against
# BENCH_baseline.json).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' .

# The in-package rungs: every Benchmark* under ./internal/..., one
# iteration each, so a rung that no longer builds, sets up or runs fails
# here and not on the day someone needs its number. For a number, run the
# one rung: go test -run '^$$' -bench PlanTick/starved -cpu 1 ./internal/plan/
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/...

# Gate against BENCH_baseline.json: three iterations per exhibit, fail on
# >10% sustained regression (25ms absolute floor for time; for the
# exhibits listed in allocs_per_op and bytes_per_op, also on allocs/op
# and B/op growth).
bench-compare:
	bash -o pipefail -c "$(GO) test -bench=. -benchtime=3x -benchmem -run '^$$' . | $(GO) run ./cmd/benchcompare"

# The opt-in 10⁷-message E13 run and its two asymptotic budgets
# (≤0.02 allocs/msg, ≤128 B/msg; see BenchmarkStreaming_TenMillion). Not
# in `ci` — one op is ~10× the Million exhibit — the nightly workflow job
# runs it.
bench-10m:
	GOPILOT_BENCH_10M=1 $(GO) test -bench '^BenchmarkStreaming_TenMillion$$' -benchtime 1x -run '^$$' .

# Profile harness for the two long-pole exhibits and the chaos scenario
# (the small-batch, fault-path end): cpu+mem profile pairs under profiles/
# (gitignored), one pair per benchmark. Inspect with e.g.
#   go tool pprof -top profiles/streaming_million.cpu.pprof
#   go tool pprof -sample_index=alloc_space -top profiles/chaos_seeds.mem.pprof
# The test binary lands next to the profiles so pprof can resolve symbols
# without rebuilding.
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkStreaming_Million$$' -benchtime 3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/streaming_million.cpu.pprof \
		-memprofile $(PROFILE_DIR)/streaming_million.mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .
	$(GO) test -run '^$$' -bench '^BenchmarkTable2_MapReduce$$' -benchtime 3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/mapreduce.cpu.pprof \
		-memprofile $(PROFILE_DIR)/mapreduce.mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .
	$(GO) test -run '^$$' -bench '^BenchmarkChaos_Seeds$$' -benchtime 10x -benchmem \
		-cpuprofile $(PROFILE_DIR)/chaos_seeds.cpu.pprof \
		-memprofile $(PROFILE_DIR)/chaos_seeds.mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .

# Seeding-spine lint: no math/rand and no raw integer seeds outside
# internal/dist; stream roots only where experiments are born; no clock
# reads, stream draws or data-service calls inside Compute closures; no
# sleeps, timers or clocks inside the internal/plan control plane; no wall
# time anywhere under internal/ or examples/ (E11's host-ms column aside);
# no mention of the Broker alias outside internal/streaming/broker.go and
# the frozen cmd/bench, and no Bus implementation asserted but *Cluster.
seed-audit:
	bash tools/seed-audit.sh

# Documentation and surface lint: every package carries a real package
# comment; every exported name under internal/ has a caller outside its own
# tests, and every exported field of a config-shaped struct a caller that
# sets it (cmd/doclint's package comment has the rules and the allow-list).
doc-audit:
	$(GO) run ./cmd/doclint .

# Chaos fuzz: run CHAOS_SEEDS random-seed chaos scenarios (starting at
# CHAOS_SEED0) against the invariant suite. On a violation the reproducing
# seed and a ready-to-paste `chaosreplay -seed N -bisect` command are
# printed and the target fails. Fully deterministic: a seed that fails
# here fails identically everywhere.
# CHAOS_REGRESS seeds are replayed first: the default-mix seeds a sweep
# once tripped over (skewed commit landing on a dead leader), so the short
# per-push leg covers what only the long nightly leg used to reach.
CHAOS_SEEDS ?= 20
CHAOS_SEED0 ?= 0
CHAOS_REGRESS ?= 72 97 105 112 143 185
chaos:
	@for s in $(CHAOS_REGRESS); do \
		echo "chaos: regression seed $$s"; \
		$(GO) run ./cmd/chaosreplay -seed $$s || exit 1; \
	done
	$(GO) run ./cmd/chaosreplay -fuzz $(CHAOS_SEEDS) -seed0 $(CHAOS_SEED0) -v

# Federation suite under the race detector: shard placement planning,
# epoch-chain divergence math, cluster handoff/link-fence/retention
# behavior, replication catch-up and divergence repair (plus the
# 10-seed replication-fault property test), offset-persistence
# restarts, the retention property test, the rehomed E13 exhibit, the
# stale-handoff chaos acceptance test, the six skewed-commit seeds, the
# planted-beside-clean chaos runs, and the Bus conformance script.
test-federation:
	$(GO) test -race -count=1 \
		-run 'TestShardReplicas|TestRecruitShard|TestDetectShardDrift|TestDivergence|TestClassifyReplica|TestCluster|TestFetchTrimmed|TestRetentionBound|TestReplication|TestStaleHandoffBug|TestOffsetStore|TestGroupRestart|TestRestartRedelivers|TestMillionMessages|TestChaosCatchesStaleHandoffBug|TestChaosSkewedCommitOnDeadLeader|TestChaosPlantedAndClean|TestBusConformance' \
		./internal/plan/ ./internal/streaming/ ./internal/experiments/

# Record-reuse hazards under the race detector, repeated: a participant
# re-arms one parker for every wait and streaming's runners and calls
# re-arm one wait object, so a stale reference would reach a *live* wait
# (DESIGN.md "Participant record", "Hot path → Park/wake"). The
# outside-world signal cases need real threads and repetition to show.
test-reuse:
	GOMAXPROCS=4 $(GO) test -race -count=20 \
		-run 'TestUnregisteredWaitPanics|TestCanceledWaitThenSleep|TestOutsideFire|TestOutsideSet|TestRecordRoundTrip|TestParkAllocatesNothing|TestStaleRegistration|TestRunnerParkData' \
		./internal/vclock/ ./internal/streaming/

# Fuzz smoke: every native fuzz target in the tree for FUZZTIME each, so a
# target (and its committed corpus under testdata/fuzz) cannot rot between
# the longer runs someone starts by hand. `go test -fuzz` takes one target
# in one package per invocation, hence the loop.
FUZZTIME ?= 10s
fuzz-smoke:
	@grep -rHo --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*' . | sort | \
	while IFS=: read -r file decl; do \
		echo "fuzz-smoke: $$(dirname $$file) $${decl#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${decl#func }$$" -fuzztime=$(FUZZTIME) "$$(dirname $$file)" || exit 1; \
	done

# The ROADMAP aim-2 yardsticks as commands. `loc` prints the non-test Go
# line count per package, in total, and — last, the figure the ROADMAP
# quotes — outside the frozen cmd/bench (`.bench_build` holds a build
# cache, not source). `exhibit-digest` prints the sha256 of everything
# cmd/experiments prints that is modeled: the `[N ms wall]` lines and the
# E11 ablation rows (host wall-clock milliseconds) are filtered out — two
# runs on one host differ in exactly those lines and nowhere else. A
# refactor quotes the digest before and after; `exhibit-stable` (in ci
# and .github/workflows/ci.yml) fails when two runs of the same tree
# disagree.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); loc[d] += $$1; all += $$1 } \
		END { for (d in loc) print loc[d], d; print all, "total"; print all - loc["./cmd/bench"], "total outside cmd/bench" }' | sort -k2

exhibit-digest:
	@$(GO) run ./cmd/experiments | grep -v -E '^ *\[[0-9]+ms wall\]$$|^(naive O|early-break)' | sha256sum | cut -d' ' -f1

exhibit-stable:
	@a=$$($(MAKE) -s exhibit-digest) && b=$$($(MAKE) -s exhibit-digest) && echo "exhibit-digest $$a" && \
		{ [ "$$a" = "$$b" ] || { echo "exhibit-digest: second run printed $$b — modeled output is not deterministic"; exit 1; }; }

# The examples run on the same virtual clock as everything else, so their
# stdout is part of the determinism contract: each of the six runs twice
# and must print the same bytes, and dynamic_scaling must actually burst
# (its policy once polled wall time and never fired on the virtual clock).
examples-stable:
	@for e in examples/*/; do \
		a=$$($(GO) run ./$$e) && b=$$($(GO) run ./$$e) || { echo "examples-stable: $$e exited non-zero"; exit 1; }; \
		[ "$$a" = "$$b" ] || { echo "examples-stable: $$e printed different bytes on its second run"; exit 1; }; \
		echo "examples-stable: $$e $$(echo "$$a" | sha256sum | cut -d' ' -f1)"; \
		case $$e in *dynamic_scaling/) \
			echo "$$a" | grep -q '^\[autonomic\] .*bursting to cloud' || \
				{ echo "examples-stable: dynamic_scaling never printed its [autonomic] burst line"; exit 1; };; \
		esac; \
	done

# "Same bytes" as a gate instead of a sentence. $(DIGESTS) records what a
# behaviour-preserving refactor must not move: the exhibit digest, the
# decision count, schedule hash and state hash of every CHAOS_REGRESS seed,
# and each example's stdout hash (as examples-stable prints it). Its first
# line is the GOARCH it was recorded on — floating-point contraction differs
# across architectures, so digest-check compares only on the same one and
# says so when it skips. A PR that legitimately moves a decision runs
# `make digest-record` and commits the file in the same diff, where the
# reviewer sees exactly which lines moved.
DIGESTS ?= tools/digests.golden
digest-print:
	@$(GO) env GOARCH
	@echo "exhibit $$($(MAKE) -s exhibit-digest)"
	@for s in $(CHAOS_REGRESS); do \
		out=$$($(GO) run ./cmd/chaosreplay -seed $$s) || { echo "$$out"; exit 1; }; \
		echo "$$out" | sed -n "s/^state hash \([0-9a-f]*\), schedule: \([0-9]*\) decisions, hash \([0-9a-f]*\).*/chaos $$s \2 \3 \1/p"; \
	done
	@for e in examples/*/; do \
		out=$$($(GO) run ./$$e) || exit 1; \
		echo "example $${e%/} $$(echo "$$out" | sha256sum | cut -d' ' -f1)"; \
	done

digest-record:
	@out=$$($(MAKE) -s digest-print) && echo "$$out" > $(DIGESTS) && echo "digest-record: wrote $(DIGESTS)"

digest-check:
	@want=$$(head -n 1 $(DIGESTS)); have=$$($(GO) env GOARCH); \
	if [ "$$want" != "$$have" ]; then \
		echo "digest-check: $(DIGESTS) was recorded on $$want and this is $$have — not comparable, skipped"; exit 0; \
	fi; \
	$(MAKE) -s digest-print | diff $(DIGESTS) - || \
		{ echo "digest-check: modeled output moved (< recorded, > this tree); if the move is intended, make digest-record and commit $(DIGESTS)"; exit 1; }; \
	echo "digest-check: $$(($$(wc -l < $(DIGESTS)) - 1)) digests match $(DIGESTS)"

ci: build vet seed-audit doc-audit test fuzz-smoke race test-reuse exhibit-stable examples-stable digest-check bench-layers bench-compare
