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
# (gitignored), one pair per benchmark, each at -cpu 1 as cmd/bench runs
# its workloads and with iterations for ≥ 1.5 s of CPU samples, so a
# function's share is read over ≈ 150 samples, not ≈ 60. Each profile's
# sample count is printed; quote a share with it. After streaming_million,
# the alloc_space of the line that makes a segment's byte-sum (cum) array,
# which Log.nextSegment reaches at every birth that finds none to reuse,
# out of the profile's total. Last, the allocations of
# mapreduce-wordcount's timed region: a mem profile of the whole-job rung
# (internal/mapreduce BenchmarkJob_Wordcount, every allocation sampled at
# 4 KB, as small ones dominate), whose total under mapreduce.Run and
# Collect is printed — the set-up's corpus is filtered out. Then the
# streaming plane's: a mem profile of stream-repl1's shape (internal/streaming
# BenchmarkGroupDrain), with the share of its alloc_space that
# Log.nextSegment, where every segment array is born, allocates. Inspect with e.g.
#   go tool pprof -top profiles/streaming_million.cpu.pprof
#   go tool pprof -sample_index=alloc_space -top profiles/chaos_seeds.mem.pprof
# The test binary lands next to the profiles so pprof can resolve symbols
# without rebuilding.
PROFILE_DIR ?= profiles
# $(call profile-one,name,benchmark,iterations)
define profile-one
	$(GO) test -run '^$$' -bench '^Benchmark$(2)$$' -benchtime $(3)x -benchmem -cpu 1 \
		-cpuprofile $(PROFILE_DIR)/$(1).cpu.pprof \
		-memprofile $(PROFILE_DIR)/$(1).mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .
	@echo "profile: $(1): $$($(GO) tool pprof -sample_index=samples -top -nodecount=1 $(PROFILE_DIR)/$(1).cpu.pprof 2>/dev/null | sed -n 's/.* of \([0-9]*\) total.*/\1/p') CPU samples"
endef
profile:
	mkdir -p $(PROFILE_DIR)
	$(call profile-one,streaming_million,Streaming_Million,15)
	@at=$$(grep -n 'make(\[\]int64' internal/streaming/log.go | cut -d: -f1); \
	echo "profile: streaming_million: $$($(GO) tool pprof -sample_index=alloc_space -lines -top -nodefraction 0 $(PROFILE_DIR)/streaming_million.mem.pprof 2>/dev/null | \
		awk -v at="/log.go:$$at" '$$0 ~ at"( [(]inline[)])?$$" && !s { s = $$1 } / total$$/ { t = $$(NF-1) } END { print (s ? s : "0MB") " of " t }') alloc_space on the line making a segment's cum array (log.go:$$at)"
	$(call profile-one,mapreduce,Table2_MapReduce,60)
	$(call profile-one,chaos_seeds,Chaos_Seeds,40)
	$(GO) test -run '^$$' -bench '^BenchmarkJob_Wordcount$$' -benchtime 10x -benchmem -cpu 1 -memprofilerate 4096 \
		-memprofile $(PROFILE_DIR)/mapreduce_job.mem.pprof -o $(PROFILE_DIR)/mapreduce.test ./internal/mapreduce
	@echo "profile: mapreduce_job: $$($(GO) tool pprof -sample_index=alloc_space -focus 'mapreduce\.(Run|Collect)' -top -nodefraction 0 $(PROFILE_DIR)/mapreduce_job.mem.pprof 2>/dev/null | sed -n 's/^Showing nodes accounting for \([^,]*\),.*/\1/p') alloc_space in mapreduce.Run and Collect over 11 jobs (go test runs 1, then 10)"
	$(GO) test -run '^$$' -bench '^BenchmarkGroupDrain$$' -benchtime 10x -benchmem -cpu 1 -memprofilerate 4096 \
		-memprofile $(PROFILE_DIR)/group_drain.mem.pprof -o $(PROFILE_DIR)/streaming.test ./internal/streaming
	@echo "profile: group_drain: $$($(GO) tool pprof -sample_index=alloc_space -focus 'streaming\.\(\*Log\)\.nextSegment' -top -nodefraction 0 $(PROFILE_DIR)/group_drain.mem.pprof 2>/dev/null | sed -n 's/^Showing nodes accounting for \(.*\) total$$/\1/p') alloc_space in Log.nextSegment over 13 M messages (go test runs 1 iteration, then 10, each after a warm-up million)"

# One linter, three floors: every package carries a real package comment;
# every exported name under internal/ has a caller outside its own tests,
# and every exported field of a config-shaped struct a caller that sets it;
# and the spine rules hold (cmd/doclint's package comment has the floors,
# its spine.go the numbered rule table). seed-audit is the old name of the
# spine floor, kept so `make seed-audit rule N` references stay valid.
doc-audit:
	$(GO) run ./cmd/doclint .

seed-audit: doc-audit

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

# Federation suite under the race detector: shard placement planning, the
# plan.Replicas decisions (the exhaustive four-shard failover enumeration
# among them), epoch-chain divergence math, link pacing, cluster
# handoff/link-fence/retention behavior, replication catch-up and
# divergence repair (plus the 10-seed replication-fault property test),
# offset-persistence restarts, the retention property test, the rehomed
# E13 exhibit, the stale-handoff chaos acceptance test, the six
# skewed-commit seeds, the planted-beside-clean chaos runs, and the Bus
# conformance script.
test-federation:
	$(GO) test -race -count=1 \
		-run 'TestShardReplicas|TestRecruitShard|TestDetectShardDrift|TestDivergence|TestClassifyReplica|TestReplicasFailExhaustive|TestReplicasAckLagKept|TestSlowLink|TestCluster|TestFetchTrimmed|TestRetentionBound|TestReplication|TestStaleHandoffBug|TestOffsetStore|TestGroupRestart|TestRestartRedelivers|TestMillionMessages|TestChaosCatchesStaleHandoffBug|TestChaosSkewedCommitOnDeadLeader|TestChaosPlantedAndClean|TestBusConformance' \
		./internal/plan/ ./internal/streaming/ ./internal/experiments/

# Record-reuse hazards under the race detector, repeated: a participant
# re-arms one parker for every wait and streaming's runners and calls
# re-arm one wait object, so a stale reference would reach a *live* wait
# (DESIGN.md "Participant record", "Hot path → Park/wake"); a cancel scope's
# group is recycled too, so a stale cancel would list a live scope's
# (TestScope*, DESIGN.md "Cancellation"); an outside cancellation reaches a
# stalled world through its watchers, which the next grant must stop
# (TestOutsideCancelReachesStalledWorld, TestStallWatchersStopOnResume,
# TestReStallWatchesScopesTheSweepListed).
# The outside-world signal cases need real threads and repetition to show.
test-reuse:
	GOMAXPROCS=4 $(GO) test -race -count=20 \
		-run 'TestUnregisteredWaitPanics|TestCanceledWaitThenSleep|TestOutsideFire|TestOutsideSet|TestRecordRoundTrip|TestSharedContextCancel|TestCancelOnFreshContext|TestParkAllocatesNothing|TestStaleRegistration|TestRunnerParkData|TestReusedRecord|TestIdleWorkers|TestScope|TestOutsideCancelReachesStalledWorld|TestStallWatchersStopOnResume|TestReStallWatches' \
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
# cmd/experiments prints that is modeled: $(EXHIBIT_FILTER) drops the
# `[N ms wall]` lines and blanks the makespan_wall_ms cell (host wall-clock
# milliseconds, the next-to-last field) of E11's four ablation rows to
# "-" — two runs on one host differ in exactly those and nowhere else, and
# E11's cores and distance_ops stay in the digest. A refactor quotes the
# digest before and after; `exhibit-stable` (in ci and
# .github/workflows/ci.yml) fails when two runs of the same tree disagree.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.bench_build/*' -not -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); loc[d] += $$1; all += $$1 } \
		END { for (d in loc) print loc[d], d; print all, "total"; print all - loc["./cmd/bench"], "total outside cmd/bench" }' | sort -k2

EXHIBIT_FILTER = grep -v -E '^ *\[[0-9]+ms wall\]$$' | awk '/^(naive O|early-break)/ { $$(NF-1) = "-" } 1'

exhibit-digest:
	@$(GO) run ./cmd/experiments | $(EXHIBIT_FILTER) | sha256sum | cut -d' ' -f1

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
# behaviour-preserving refactor must not move: one digest per exhibit of
# `cmd/experiments -list` (its `-run` output through $(EXHIBIT_FILTER)),
# the decision count, schedule hash and state hash of every CHAOS_REGRESS
# seed, and each example's stdout hash (as examples-stable prints it). Its first
# line is the GOARCH it was recorded on — floating-point contraction differs
# across architectures, so digest-check compares only on the same one and
# says so when it skips. A PR that legitimately moves a decision runs
# `make digest-record` and commits the file in the same diff, where the
# reviewer sees exactly which lines moved.
DIGESTS ?= tools/digests.golden
digest-print:
	@$(GO) env GOARCH
	@for n in $$($(GO) run ./cmd/experiments -list | cut -d' ' -f1); do \
		out=$$($(GO) run ./cmd/experiments -run $$n) || exit 1; \
		echo "exhibit $$n $$(echo "$$out" | $(EXHIBIT_FILTER) | sha256sum | cut -d' ' -f1)"; \
	done
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

ci: build vet doc-audit test fuzz-smoke race test-reuse exhibit-stable examples-stable digest-check bench-layers bench-compare
