#!/usr/bin/env bash
# seed-audit — the seeding-spine lint (DESIGN.md "Seeding spine").
#
# Every stochastic draw in this repository must flow from one experiment
# root through labeled dist.Stream children. These rules keep it that way:
#
#   1. No non-test file imports math/rand, internal/dist included: every
#      draw comes from a dist.Stream, and dist's generator and samplers
#      (Zipf too) are fixed by this repository, not by the Go release.
#   2. The integer-seed distribution constructors (dist.NewNormal,
#      dist.NewLogNormal, dist.NewBernoulli) are dist-internal legacy
#      surface: production code builds distributions with the *From
#      constructors on a labeled sub-stream.
#   3. Stream roots (dist.NewStream) are born only where experiments are
#      born: internal/experiments (testbeds/exhibits), cmd/ (flag
#      parsing) and examples/. Library packages receive sub-streams;
#      they never mint roots.
#   4. Compute closures are pure (DESIGN.md "Parallel compute phase"):
#      a `Compute(... func() {` block must not read the clock, sleep in
#      modeled time, draw from streams, or touch the data service. A
#      violation would not crash — it would silently break bit-
#      reproducibility (the draw or clock read happens off the executor
#      token) — so it fails `make ci` here instead.
#   5. internal/streaming never ranges over a map (DESIGN.md "Streaming
#      data plane"): Go randomizes map iteration order, so ranging over
#      partition/worker/topic bookkeeping decides wake-up and publish
#      order nondeterministically — the exact hazard the broker's
#      index-ordered partition walks and the group's sorted member
#      slices exist to avoid. Keep such state in slices (or collect keys
#      into a sorted slice *outside* this package's hot paths).
#   6. internal/plan is pure decision logic (DESIGN.md "Control plane"):
#      the planner computes retry instants and dispatch decisions from
#      arguments it is handed, and the manager does all the waiting. A
#      time.Sleep/timer/wall-clock read in the planner would anchor a
#      retry delay to real time instead of the virtual clock, and a
#      vclock import would let it block while holding the manager's
#      lock — either silently breaks bit-identical same-seed runs.
#   7. internal/chaos schedules faults only in modeled time and draws
#      only from its labeled "chaos"/... streams (DESIGN.md "Chaos &
#      replay"): a time.Sleep/timer/wall-clock read there would anchor a
#      fault instant to real time — the reproducing-seed contract (same
#      seed, same fault schedule, same divergence point) dies silently.
#      math/rand is already banned by rule 1; this rule bans the clock.
#   8. Compute closures never touch sync.Pool (DESIGN.md "Hot path"):
#      pooled scratch (mapreduce's kernelScratch, streaming's pubScratch)
#      is fetched on-token before Compute and released on-token after the
#      rejoin — the pool's own mutex/per-P caches are scheduler-visible
#      shared state, so a Get/Put inside a kernel would (a) race the
#      release path that runs after rejoin and (b) make kernel cost
#      depend on which real core ran it. Like rule 4 this would not
#      crash; it would silently leak pooled buffers across the purity
#      boundary — so the grep-gate lives here.
#   9. Nothing under internal/ or examples/ touches wall time (DESIGN.md
#      "The virtual-time executor"): there is one clock, vclock.Virtual,
#      and a time.Now/Since/Sleep/After/NewTimer/AfterFunc/Tick beside it
#      is a second, non-deterministic one — the bug examples/
#      dynamic_scaling carried while a scaled clock hid it. The only
#      allowed lines are E11's two host-milliseconds reads in
#      internal/experiments/exp_loop.go (the one exhibit column that
#      reports host CPU time, filtered out of `make exhibit-digest`).
#  10. One Bus implementation (DESIGN.md "Federation"): the single-broker
#      deployment is Cluster{Shards: 1, Replication: 1}. NewBroker,
#      BrokerConfig and the Broker type survive only as the alias the
#      frozen benchmark harness names — internal/streaming/broker.go,
#      deleted with ROADMAP item 1 — so outside that file and cmd/bench
#      nothing may name them, and nothing but *Cluster may be asserted
#      to implement Bus: the alias cannot regain callers, or a second
#      implementation a foothold, before the harness lets go of it.
#  11. One lock level on the broker side (DESIGN.md "One lock level"):
#      Cluster.mu guards the control plane and every replica log, so a
#      copy is resolved and used in one critical section and no code
#      exists to bridge two. internal/streaming/{partition,log}.go name no
#      sync.Mutex/RWMutex and cluster.go, cluster_bus.go and broker.go
#      together name exactly one (the field Cluster.mu): a second lock
#      level — and with it the re-scans, closed-flag branches and retry
#      results that close its windows — cannot come back unnoticed.
#  12. One lock level in the pilot manager (DESIGN.md "Control plane",
#      "One lock level"): Manager.mu guards every mutable pilot and unit
#      field, so each flow acts on what it read in one critical section
#      and nothing re-checks a drift or a state "under the object locks".
#      Non-test internal/core names exactly one sync.Mutex/RWMutex (the
#      field Manager.mu), and pilot.go and unit.go name none.
#  13. One lock per backend, one job state machine (DESIGN.md "One job
#      state machine"): hpc, htc, cloud and yarn each implement
#      saga.Service, and their jobs embed saga.JobRecord, guarded by the
#      backend's mutex. Non-test internal/saga imports no
#      internal/infra/<backend> package (an adaptor over a backend is a
#      second state machine and the code to bridge it); non-test
#      internal/infra/** and internal/saga declare at most seven
#      sync.Mutex/RWMutex — one each for hpc, htc, cloud, yarn, serverless
#      and saga.LocalService, plus saga.Registry — and no job, VM,
#      container or glidein type declares one (a *sync.Mutex pointing at
#      the backend's is a reference, not a declaration).
#  14. A backend's per-job contexts are the clock's cancel scopes
#      (DESIGN.md "Cancellation"): non-test internal/infra/** and
#      internal/saga call no context.WithCancel/WithTimeout/WithDeadline
#      outside a `func New(` — the service-lifetime context a backend's
#      constructor makes, one poll that its jobs' scopes hang under. A
#      standard context per job or per attempt is one more channel every
#      cancellation sweep reads until the job ends; vclock.Virtual's
#      WithCancel costs the sweep nothing until it can close.
#  15. The pilot manager finds a unit by its ordinal (DESIGN.md "Control
#      plane" → Admission): Manager.units holds every unit in ordinal
#      order, so the unit behind a plan.UnitSpec is units[Ordinal-1].
#      Non-test internal/core declares no map keyed by unit ID
#      (map[string]*ComputeUnit) — one more insert per admission, and a
#      map that cannot be presized for a batch. The planner below it
#      indexes its records by the same ordinal, so non-test internal/plan
#      declares no map[string]*unitRec either.
#  16. A park is one receive (DESIGN.md "Cancellation"): non-test
#      internal/vclock never receives from a record's done channel
#      (`<-r.done`). A parked record waits on its grant channel alone; a
#      select that also watches its context is one more sudog per park on
#      every task, and an outside cancellation reaches a stalled world
#      through the stall's watchers and a scope's cancel instead.
#  17. An exhibit's seed is written once (DESIGN.md "Experiment index"):
#      the table experiments.Exhibits in internal/experiments/exhibits.go
#      holds every exhibit's seed, and each exhibit body takes it as an
#      argument. No other non-test internal/experiments file writes an
#      integer-literal seed — no `Seed: 5` in a TestbedConfig{...} and no
#      dist.NewStream(16). A body that builds a second testbed derives its
#      seed from its own (seed+1, seed+100+n): arithmetic on seed is fine.
#      A literal in a body is a second place the seed lives, and the next
#      seed sweep would silently leave that testbed behind.
#  18. Replica decisions live in plan (DESIGN.md "Federation" → Handoff as
#      recovery protocol): a partition's plan.Replicas — Members, Syncing,
#      Epoch, Acked, AckedAt — changes only through its methods (Ack, Fail,
#      Round, PlaceReplicas). No non-test internal/streaming file assigns
#      to, increments or index-assigns one of those fields (or the embedded
#      Replicas value itself); a log's own Epoch (np.Epoch, lp.Epoch,
#      fp.Epoch, l.Epoch) is the log's stamp and stays legal. A cluster that
#      edits the set itself is a second replication policy, and the model
#      checker that drives the methods would no longer cover the one that
#      runs.
#  19. The streaming contracts have one implementation (DESIGN.md
#      "Invariant suite"): outside the frozen cmd/bench, no non-test file
#      sets a ClusterConfig's OnCommit or OnAcked to a func literal — wire
#      chaos.Checker's OnCommit and OnAcked instead. A hand-written hook is
#      a second copy of the cursor and watermark rules, and copies drift.
#
# Test files (_test.go) are exempt: tests construct fixture roots freely.
set -u
cd "$(dirname "$0")/.."

fail=0

# Enumerate non-test Go files, tracked or not, excluding vendored paths.
files=$(find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' | sed 's|^\./||')

for f in $files; do
  if grep -qE '"math/rand(/v2)?"' "$f"; then
    echo "seed-audit: $f imports math/rand — draw from a labeled dist.Stream instead" >&2
    fail=1
  fi
  if grep -nE 'dist\.New(Normal|LogNormal|Bernoulli)\(' "$f" >&2; then
    echo "seed-audit: $f constructs a distribution from a raw integer seed — use dist.*From on a labeled sub-stream" >&2
    fail=1
  fi
  # Rule 4: purity inside Compute closures. Track brace depth from any
  # line that opens a `Compute(..., func(...) {` literal; until the block
  # closes, flag clock reads, modeled sleeps, stream draws and
  # data-service calls. The close is found by a character scan so that on
  # a `}) {` line (closure ends, if-block begins) only the text up to the
  # closing brace counts as inside — the if-body that handles a false
  # Compute return is on-token code and out of scope.
  # (vclock itself implements Compute and is skipped.)
  case "$f" in
    internal/vclock/*) ;;
    *)
      impure=$(awk '
        function scan(    i, c, cut) {
          cut = length($0)
          for (i = 1; i <= length($0); i++) {
            c = substr($0, i, 1)
            if (c == "{") depth++
            else if (c == "}") {
              depth--
              if (depth <= 0) { inblock = 0; cut = i; break }
            }
          }
          return substr($0, 1, cut)
        }
        inblock {
          if (scan() ~ /tc\.Stream|\.Now\(\)|Clock\(\)|tc\.Sleep\(|clock\.Sleep\(|\.Sample\(|tc\.Data\.|Data\(\)\./)
            printf "%d: %s\n", FNR, $0
          next
        }
        /Compute\(/ && /func\(/ {
          depth = 0
          scan()
          if (depth > 0) inblock = 1
        }
      ' "$f")
      if [ -n "$impure" ]; then
        echo "seed-audit: $f uses the clock/streams/data inside a Compute closure — Compute bodies must be pure CPU:" >&2
        echo "$impure" | sed "s|^|seed-audit:   $f:|" >&2
        fail=1
      fi
      # Rule 8: same block tracking, different contraband — pool traffic.
      # Pooled scratch is acquired before Compute and released after the
      # rejoin, both on-token; a Get/Put (or a scratch release) inside the
      # kernel races the on-token release path.
      pooled=$(awk '
        function scan(    i, c, cut) {
          cut = length($0)
          for (i = 1; i <= length($0); i++) {
            c = substr($0, i, 1)
            if (c == "{") depth++
            else if (c == "}") {
              depth--
              if (depth <= 0) { inblock = 0; cut = i; break }
            }
          }
          return substr($0, 1, cut)
        }
        inblock {
          if (scan() ~ /sync\.Pool|[Pp]ool\.(Get|Put)\(|getScratch\(|\.release\(\)/)
            printf "%d: %s\n", FNR, $0
          next
        }
        /Compute\(/ && /func\(/ {
          depth = 0
          scan()
          if (depth > 0) inblock = 1
        }
      ' "$f")
      if [ -n "$pooled" ]; then
        echo "seed-audit: $f touches a sync.Pool inside a Compute closure — fetch scratch on-token before Compute, release after the rejoin:" >&2
        echo "$pooled" | sed "s|^|seed-audit:   $f:|" >&2
        fail=1
      fi
      ;;
  esac
  # Rule 5: map ranges in the streaming data plane. Pass 1 (below the
  # loop's first use: streaming_mapvars is collected package-wide, once)
  # gathers every map-typed identifier declared anywhere in
  # internal/streaming (var/field declarations and make(map...)
  # assignments); pass 2 flags any `range` over one of them in this file,
  # through a selector or not (`range byPart`, `range b.topics`).
  case "$f" in
    internal/streaming/*)
      if [ -z "${streaming_mapvars+x}" ]; then
        streaming_mapvars=$( (find internal/streaming -name '*.go' ! -name '*_test.go' \
          -exec grep -ohE '[A-Za-z_][A-Za-z0-9_]*( +| *:?= *(make\()?)map\[' {} + 2>/dev/null || true) \
          | sed -E 's/( +| *:?= *(make\()?)map\[$//' | sort -u)
      fi
      for v in $streaming_mapvars; do
        if grep -nE "range +([A-Za-z_][A-Za-z0-9_.]*\.)?${v}\b" "$f" >&2; then
          echo "seed-audit: $f ranges over map \"$v\" — map iteration order is random; keep partition/worker state in slices" >&2
          fail=1
        fi
      done
      ;;
  esac
  # Rule 6: no blocking, timers or wall-clock reads in the planner; it
  # receives instants as arguments and returns instants as decisions.
  case "$f" in
    internal/plan/*)
      if grep -nE 'time\.(Sleep|After|AfterFunc|NewTimer|NewTicker|Tick|Now)\(' "$f" >&2; then
        echo "seed-audit: $f sleeps on or reads the wall clock — the planner computes instants, the manager waits" >&2
        fail=1
      fi
      if grep -nE '"gopilot/internal/vclock"' "$f" >&2; then
        echo "seed-audit: $f imports vclock — the planner never owns a clock; pass instants in as arguments" >&2
        fail=1
      fi
      ;;
  esac
  # Rule 7: the chaos engine never touches wall time — fault instants,
  # recovery windows and commit skews live entirely on the injected
  # (virtual) clock, so a failing seed replays bit-identically.
  case "$f" in
    internal/chaos/*)
      if grep -nE 'time\.(Sleep|After|AfterFunc|NewTimer|NewTicker|Tick|Now|Since)\(' "$f" >&2; then
        echo "seed-audit: $f sleeps on or reads the wall clock — chaos schedules faults in modeled time only" >&2
        fail=1
      fi
      ;;
  esac
  # Rule 9: no wall time beside the virtual clock. The allow-list is the
  # exact text of E11's two host-milliseconds lines.
  case "$f" in
    internal/*|examples/*)
      wall=$(grep -nE 'time\.(Now|Since|Sleep|After|NewTimer|AfterFunc|Tick)\(' "$f" || true)
      if [ "$f" = internal/experiments/exp_loop.go ]; then
        wall=$(echo "$wall" | grep -vE 'wallStart := time\.Now\(\)$|time\.Since\(wallStart\)\.Microsecond' || true)
      fi
      if [ -n "$wall" ]; then
        echo "$wall" | sed "s|^|seed-audit:   $f:|" >&2
        echo "seed-audit: $f reads or sleeps on wall time — use the component's vclock.Clock" >&2
        fail=1
      fi
      ;;
  esac
  # Rule 10: the Broker alias has no caller but the frozen harness, and
  # Bus has one implementation.
  case "$f" in
    cmd/bench/*|internal/streaming/broker.go) ;;
    *)
      if grep -nE '\b(NewBroker|BrokerConfig|Broker)\b' "$f" >&2; then
        echo "seed-audit: $f names the Broker alias — construct streaming.NewCluster(ClusterConfig{Shards: 1, Replication: 1})" >&2
        fail=1
      fi
      ;;
  esac
  if grep -nE '\bBus += +\(\*[A-Za-z_.]+\)\(nil\)' "$f" | grep -vF '(*Cluster)(nil)' >&2; then
    echo "seed-audit: $f asserts a second Bus implementation — Cluster is the one; a deployment is its configuration" >&2
    fail=1
  fi
  # Rule 17: exhibit seeds are written in the exhibit table only.
  case "$f" in
    internal/experiments/exhibits.go) ;;
    internal/experiments/*)
      if grep -nE '\bSeed: *(int64\()?[0-9]|dist\.NewStream\( *(int64\()?[0-9]' "$f" >&2; then
        echo "seed-audit: $f writes an integer-literal seed — an exhibit's seed lives in its experiments.Exhibits entry; derive later testbeds from it (seed+1, ...)" >&2
        fail=1
      fi
      ;;
  esac
  case "$f" in
    internal/experiments/*|cmd/*|examples/*) continue ;;
  esac
  if grep -nE 'dist\.NewStream\(' "$f" >&2; then
    echo "seed-audit: $f mints a stream root — accept a *dist.Stream (or derive via dist.Unseeded) instead" >&2
    fail=1
  fi
done

# Rule 11: the broker side declares one mutex, and it is not on a log.
st=internal/streaming
if grep -nE 'sync\.(RW)?Mutex' $st/partition.go $st/log.go >&2; then
  echo "seed-audit: a replica log has its own lock — Cluster.mu guards every copy" >&2
  fail=1
fi
if [ "$(cat $st/cluster.go $st/cluster_bus.go $st/broker.go | grep -cE 'sync\.(RW)?Mutex')" -ne 1 ]; then
  grep -nE 'sync\.(RW)?Mutex' $st/cluster.go $st/cluster_bus.go $st/broker.go >&2
  echo "seed-audit: the broker side must name exactly one mutex, Cluster.mu — a second lock level needs code to bridge the two" >&2
  fail=1
fi

# Rule 12: the pilot manager declares one mutex, and it is not on a pilot
# or a unit.
co=internal/core
if grep -nE 'sync\.(RW)?Mutex' $co/pilot.go $co/unit.go >&2; then
  echo "seed-audit: a pilot or unit has its own lock — Manager.mu guards every pilot and unit field" >&2
  fail=1
fi
if [ "$(find $co -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cE 'sync\.(RW)?Mutex')" -ne 1 ]; then
  find $co -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -nE 'sync\.(RW)?Mutex' {} + >&2
  echo "seed-audit: internal/core must name exactly one mutex, Manager.mu — a second lock level needs code to bridge the two" >&2
  fail=1
fi

# Rule 13: the backends are the SAGA services, with one lock each.
sg=$(find internal/saga -name '*.go' ! -name '*_test.go')
if grep -nE '"gopilot/internal/infra/[a-z]+"' $sg >&2; then
  echo "seed-audit: internal/saga imports a backend — each backend implements saga.Service itself; saga holds the job record, LocalService and Registry" >&2
  fail=1
fi
backend=$(find internal/infra internal/saga -name '*.go' ! -name '*_test.go')
decl='(^|[^*])sync\.(RW)?Mutex\b'
if [ "$(cat $backend | grep -cE "$decl")" -gt 7 ]; then
  grep -nE "$decl" $backend >&2
  echo "seed-audit: internal/infra/** and internal/saga declare more than 7 mutexes — one per backend (hpc, htc, cloud, yarn, serverless), LocalService and Registry" >&2
  fail=1
fi
locked=$(awk '
  /^type [A-Za-z_]+ struct \{/ { name = $2; inside = (tolower(name) ~ /job|vm|instance|container|glidein/); next }
  inside && /^\}/ { inside = 0; next }
  inside && /(^|[^*])sync\.(RW)?Mutex/ { printf "%s:%d: %s\n", FILENAME, FNR, name }
' $backend)
if [ -n "$locked" ]; then
  echo "$locked" | sed 's|^|seed-audit:   |' >&2
  echo "seed-audit: a job, VM, container or glidein has its own lock — its backend's mutex guards it" >&2
  fail=1
fi

# Rule 14: no standard cancelable context in a backend outside its New.
polled=$(awk '
  FNR == 1 { fn = "" }
  /^func / { fn = $0 }
  /context\.With(Cancel|Timeout|Deadline)\(/ && fn !~ /^func New\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' $backend)
if [ -n "$polled" ]; then
  echo "$polled" | sed 's|^|seed-audit:   |' >&2
  echo "seed-audit: a backend mints a standard cancelable context per job — use its clock's WithCancel (only New may make the service-lifetime context)" >&2
  fail=1
fi

# Rule 15: no map keyed by unit ID in the pilot manager or its planner.
if grep -nE 'map\[string\]\*?ComputeUnit\b' $(find $co -maxdepth 1 -name '*.go' ! -name '*_test.go') >&2; then
  echo "seed-audit: internal/core keys a map by unit ID — the ordinal indexes Manager.units" >&2
  fail=1
fi
if grep -nE 'map\[string\]\*?unitRec\b' $(find internal/plan -maxdepth 1 -name '*.go' ! -name '*_test.go') >&2; then
  echo "seed-audit: internal/plan keys a map by unit ID — the ordinal indexes Planner.recs" >&2
  fail=1
fi

# Rule 16: a park is one receive on the record's grant channel.
if grep -nE '<-\s*r\.done' $(find internal/vclock -maxdepth 1 -name '*.go' ! -name '*_test.go') >&2; then
  echo "seed-audit: internal/vclock receives from a record's done — a park waits on its grant alone; a stall's watchers carry outside cancellations" >&2
  fail=1
fi

# Rule 18: the cluster applies replica decisions; plan.Replicas makes them.
edited=$(grep -nE '\.(Members|Syncing|Epoch|Acked|AckedAt|Replicas)(\[[^]]*\])?[[:space:]]*(=[^=]|\+\+|--|[-+*/|&^]=)' \
  $(find internal/streaming -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -vE '\b(np|lp|fp|l)\.Epoch\b' || true)
if [ -n "$edited" ]; then
  echo "$edited" | sed 's|^|seed-audit:   |' >&2
  echo "seed-audit: internal/streaming edits a partition's replica state — call a plan.Replicas method (Ack, Fail, Round) instead" >&2
  fail=1
fi

# Rule 19: commit and watermark hooks are chaos.Checker's, never a literal.
hooked=$(grep -nE '\bOn(Commit|Acked):[[:space:]]*func\b' $(echo "$files" | grep -vE '^(cmd/bench|\.bench_build)/') || true)
if [ -n "$hooked" ]; then
  echo "$hooked" | sed 's|^|seed-audit:   |' >&2
  echo "seed-audit: an OnCommit/OnAcked hook is a func literal — wire chaos.Checker's OnCommit/OnAcked, the one implementation of the cursor and watermark contracts" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "seed-audit: FAILED — the seeding spine has a leak (see DESIGN.md 'Seeding spine')" >&2
  exit 1
fi
echo "seed-audit: ok"
