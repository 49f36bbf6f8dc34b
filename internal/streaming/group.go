package streaming

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/vclock"
)

// This file implements consumer groups: a coordinator that shards a
// topic's partitions across a dynamic pool of pilot-managed workers with
// Kafka-style generation-based rebalancing, deterministic under the
// virtual-time executor.
//
// Protocol (DESIGN.md "Streaming data plane"): membership changes create
// a new *generation*. Workers of the obsolete generation are interrupted
// mid-long-poll (their generation context is canceled, which wakes the
// clock-aware park inside FetchOrWait), finish and commit any batch
// already in flight, then acknowledge the new generation. Only when every
// worker touched by the change has acknowledged does the new assignment
// activate (the generation barrier), so no partition is ever consumed by
// two workers at once and the commit cursor handoff is exact: processing
// is exactly-once across rebalances.
//
// Assignment is a pure function of the sorted member ordinals: the i-th
// member (by spawn ordinal) owns partitions {q : q mod M == i}. Ordinals
// are assigned at spawn and never reused, so the assignment never depends
// on join timing races or map iteration.
//
// A worker that dies abnormally (handler failure, broker closed under it)
// evicts itself on the way out: its partitions reshard onto the survivors
// and its slot in any pending barrier is released, so one crashed worker
// can neither strand its shard nor wedge later rebalances.

// GroupConfig describes a consumer group — Pilot-Streaming's core
// operation of coupling a broker to processing resources managed via the
// pilot-abstraction: a coordinator plus a pool of one-core worker units
// consuming one topic with dynamic membership, commit-based progress, and
// (with ClusterConfig.MaxInflightBytes) backpressure. A pool that is never
// resized is the static deployment: worker w of W owns partitions w, w+W, …
// for the group's lifetime and Rebalances stays 0.
type GroupConfig struct {
	// Name labels the group's compute units.
	Name string
	// Topic to consume.
	Topic string
	// Workers is the initial pool size (default 1); AddWorker/RemoveWorker
	// change it at runtime. Workers beyond the partition count idle, as in
	// Kafka consumer groups.
	Workers int
	// BatchSize bounds messages per poll (default 256).
	BatchSize int
	// Handler processes each message.
	Handler HandlerFunc
	// PureHandler marks Handler as a side-effect-free CPU kernel (no
	// tc.Sleep, no clock reads, no stream draws, no shared mutation): the
	// group then runs each fetch batch's handler calls as one parallel
	// compute phase, so workers reconstruct/decode on real cores under the
	// virtual-time executor while latency accounting stays on the token
	// and bit-reproducible. Handlers that model per-message time with
	// tc.Sleep must leave this false.
	PureHandler bool
	// CostPerMessage is the modeled processing cost per message, charged
	// once per poll batch (as real consumers amortize per-record overhead
	// across poll batches).
	CostPerMessage time.Duration
	// CostCV makes per-batch cost stochastic (lognormal multiplier, mean
	// 1). Zero keeps costs deterministic.
	CostCV float64
	// Stream is the group's slot on the seeding spine; worker ordinal w
	// draws its cost jitter from Stream's "worker"/<w> child, so joins and
	// leaves never shift an existing worker's draws. Only consumed when
	// CostCV > 0. Defaults to dist.Unseeded("streaming/group/<name>").
	Stream *dist.Stream
	// Offsets, when set, makes the group's progress durable: every
	// partition cursor is saved to the store after its broker commit, and
	// StartGroup loads persisted cursors back — a restarted group resumes
	// exactly where the last committed batch ended, with zero duplicates
	// and zero gaps. Partitions without a persisted cursor register at 0,
	// which floors the store's low-watermark (so a federated cluster never
	// trims data a known group has not durably consumed). Nil keeps the
	// group ephemeral.
	Offsets *OffsetStore
	// PlantBarrierCarry plants the deliberate barrier-carry defect, for
	// tests and cmd/chaosreplay only: newGenerationLocked drops the
	// old.waitFor carry-forward — reintroducing a fixed bug (a worker
	// removed during generation N could still own a partition when N+1
	// activated, breaking the exactly-once handoff under back-to-back
	// rebalances) so the chaos harness can prove its invariant checkers
	// catch the bug class.
	PlantBarrierCarry bool
}

// generation is one epoch of the membership. It activates (ready fires)
// once every worker of the previous epoch has quiesced, and retires
// (ctx canceled, changed fired) when the next epoch is created.
type generation struct {
	id      int
	members []int // sorted worker ordinals
	ctx     context.Context
	cancel  context.CancelFunc
	changed *vclock.Event // a newer generation exists
	ready   *vclock.Event // the barrier: assignment is active
	waitFor []int         // ordinals whose ack still gates ready
}

// leaseKey is the run-context key under which a Group names the
// OffsetStore its cursors are persisted to.
type leaseKey struct{}

// Group is a running consumer group.
type Group struct {
	*counters
	cfg    GroupConfig
	broker Bus
	mgr    *core.Manager
	nparts int

	runCtx     context.Context
	stop       context.CancelFunc
	workerRoot *dist.Stream

	mu          sync.Mutex
	cur         *generation
	nextOrdinal int
	units       []*core.ComputeUnit
	offsets     []int64 // per-partition consume cursor, handed off at the barrier
	seeded      bool    // initial pool is up; later changes count as rebalances
	rebalances  int
}

// StartGroup deploys the initial workers onto mgr's pilots and starts
// consuming from the given transport. Stop (or ctx cancellation)
// terminates the group.
func StartGroup(ctx context.Context, mgr *core.Manager, broker Bus, cfg GroupConfig) (*Group, error) {
	if cfg.Handler == nil {
		return nil, errors.New("streaming: group needs a handler")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Name == "" {
		cfg.Name = "stream-group"
	}
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("streaming/group/" + cfg.Name)
	}
	nparts, err := broker.Partitions(cfg.Topic)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	if cfg.Offsets != nil {
		// The group's persisted cursors floor the store's retention, and a
		// worker is done with a batch once its cursor is saved past it: its
		// fetches may lease their views (Cluster.FetchOrWait).
		runCtx = context.WithValue(runCtx, leaseKey{}, cfg.Offsets)
	}
	g := &Group{
		counters:   newCounters(broker.Clock()),
		cfg:        cfg,
		broker:     broker,
		mgr:        mgr,
		nparts:     nparts,
		runCtx:     runCtx,
		stop:       cancel,
		workerRoot: cfg.Stream.Named("worker"),
	}
	g.offsets = make([]int64, nparts)
	if cfg.Offsets != nil {
		// Resume from the persisted snapshot: cursors pick up exactly where
		// the last committed batch of a previous incarnation ended.
		// Partitions never saved register at 0 now, so the store's
		// low-watermark accounts for this group from the first instant.
		for q := 0; q < nparts; q++ {
			if next, ok := cfg.Offsets.Load(cfg.Name, cfg.Topic, q); ok {
				g.offsets[q] = next
			} else {
				cfg.Offsets.Save(cfg.Name, cfg.Topic, q, 0)
			}
		}
	}
	// Generation 0: empty membership, already active.
	gen0ctx, gen0cancel := context.WithCancel(runCtx)
	g.cur = &generation{id: 0, ctx: gen0ctx, cancel: gen0cancel,
		changed: vclock.NewEvent(broker.Clock()), ready: vclock.NewEvent(broker.Clock())}
	g.cur.ready.Fire()
	for i := 0; i < cfg.Workers; i++ {
		if _, err := g.AddWorker(); err != nil {
			cancel()
			g.Stop()
			return nil, err
		}
	}
	g.mu.Lock()
	g.seeded = true
	g.mu.Unlock()
	return g, nil
}

// newGenerationLocked installs the next generation for the given member
// set. Callers hold g.mu.
func (g *Group) newGenerationLocked(members []int) *generation {
	old := g.cur
	ng := &generation{
		id:      old.id + 1,
		members: members,
		changed: vclock.NewEvent(g.broker.Clock()),
		ready:   vclock.NewEvent(g.broker.Clock()),
	}
	ng.ctx, ng.cancel = context.WithCancel(g.runCtx)
	// The barrier waits for every worker the change touches: continuing
	// and departing members of the old epoch, joiners (whose ack doubles
	// as proof their unit actually started), and — because membership can
	// change again before everyone converges — the ordinals the old epoch
	// was itself still waiting on. A worker removed in generation N is in
	// neither N's nor N+1's member set, and N's ready is force-fired on
	// retirement below; if it has not yet acked N, only old.waitFor still
	// records that it is out there finishing a batch under an older
	// assignment. Dropping it would let back-to-back membership changes
	// activate N+1 while that worker still owns a partition, breaking the
	// exactly-once handoff (its late commit would also rewind g.offsets).
	ng.waitFor = unionInts(unionInts(old.waitFor, old.members), members)
	if g.cfg.PlantBarrierCarry {
		ng.waitFor = unionInts(old.members, members) // the pre-fix defect
	}
	if len(ng.waitFor) == 0 {
		ng.ready.Fire()
	}
	g.cur = ng
	if g.seeded {
		g.rebalances++
	}
	// Retire the old epoch: interrupt parked polls and release anyone
	// still waiting on a barrier that can no longer complete (they re-read
	// g.cur and converge on this generation).
	old.cancel()
	old.changed.Fire()
	old.ready.Fire()
	return ng
}

// dropWaitLocked releases ordinal's slot in gen's barrier, firing ready
// when the last slot empties — the single place barrier slots are
// removed, whatever the reason (ack, eviction, spawn failure). Callers
// hold g.mu; firing under the lock is safe, newGenerationLocked already
// fires retired-generation events the same way.
func dropWaitLocked(gen *generation, ordinal int) {
	for i, o := range gen.waitFor {
		if o == ordinal {
			gen.waitFor = append(gen.waitFor[:i], gen.waitFor[i+1:]...)
			break
		}
	}
	if len(gen.waitFor) == 0 && !gen.ready.Fired() {
		gen.ready.Fire()
	}
}

// AddWorker grows the pool by one worker, returning its ordinal. The new
// assignment activates once every current worker has finished its
// in-flight batch (the generation barrier).
func (g *Group) AddWorker() (int, error) {
	g.mu.Lock()
	ord := g.nextOrdinal
	g.nextOrdinal++
	members := append(append([]int(nil), g.cur.members...), ord)
	slices.Sort(members)
	g.newGenerationLocked(members)
	g.mu.Unlock()

	var jitter dist.Dist
	if g.cfg.CostCV > 0 {
		jitter = dist.LogNormalFrom(g.workerRoot.SplitLabel(uint64(ord)), 1, g.cfg.CostCV)
	}
	u, err := g.mgr.SubmitUnit(core.UnitDescription{
		Name:  fmt.Sprintf("%s[%d]", g.cfg.Name, ord),
		Cores: 1,
		Run: func(_ context.Context, tc core.TaskContext) error {
			return g.run(tc, ord, jitter)
		},
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		// Compensate: drop the member again and release its barrier slot —
		// its unit will never ack.
		g.newGenerationLocked(removeInt(g.cur.members, ord))
		dropWaitLocked(g.cur, ord)
		return 0, err
	}
	g.units = append(g.units, u)
	return ord, nil
}

// RemoveWorker shrinks the pool, interrupting the worker's in-flight poll
// and re-sharding its partitions once it (and everyone else) quiesces.
func (g *Group) RemoveWorker(ordinal int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Contains(g.cur.members, ordinal) {
		return fmt.Errorf("streaming: group %q has no worker %d", g.cfg.Name, ordinal)
	}
	g.newGenerationLocked(removeInt(g.cur.members, ordinal))
	return nil
}

// Members returns the current sorted worker ordinals.
func (g *Group) Members() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.cur.members...)
}

// BarrierPending returns how many workers the current generation's
// barrier is still waiting on; zero means the assignment is active. The
// chaos invariant suite polls this to detect a stranded barrier.
func (g *Group) BarrierPending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur.ready.Fired() {
		return 0
	}
	return len(g.cur.waitFor)
}

// Rebalances returns how many membership changes occurred after the
// initial pool came up.
func (g *Group) Rebalances() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rebalances
}

// assignedParts returns the partitions the idx-th of m members owns.
func assignedParts(idx, m, nparts int) []int {
	var parts []int
	for q := idx; q < nparts; q += m {
		parts = append(parts, q)
	}
	return parts
}

// run is one worker's life: converge on the current generation, pass the
// barrier, consume the assigned shard until the generation retires, and
// exit once no longer a member.
func (g *Group) run(tc core.TaskContext, ordinal int, jitter dist.Dist) error {
	acked := -1
	for {
		if g.runCtx.Err() != nil {
			return nil
		}
		g.mu.Lock()
		gen := g.cur
		if gen.id != acked {
			// The ack must happen under the same lock that read g.cur:
			// between a bare read and a later ack, a membership change could
			// install a successor that inherits this ordinal through the
			// waitFor carry-forward — acking the stale epoch and exiting
			// would then leave the successor's barrier waiting forever on a
			// worker that is gone. (The executor's single-runner token
			// already orders participants; taking the lock keeps the
			// guarantee independent of it.)
			dropWaitLocked(gen, ordinal)
			acked = gen.id
		}
		g.mu.Unlock()
		idx := slices.Index(gen.members, ordinal)
		if idx < 0 {
			return nil // removed from the group
		}
		if !gen.ready.Wait(g.runCtx) {
			if g.runCtx.Err() != nil {
				return nil
			}
			continue
		}
		parts := assignedParts(idx, len(gen.members), g.nparts)
		if len(parts) == 0 {
			// More workers than partitions: idle until the next rebalance.
			if !gen.changed.Wait(g.runCtx) && g.runCtx.Err() != nil {
				return nil
			}
			continue
		}
		if err := g.consume(gen, tc, parts, jitter); err != nil {
			// The worker is exiting abnormally: leave the membership so
			// its partitions are resharded and no future barrier waits for
			// an ack this unit will never send.
			g.evict(ordinal)
			if errors.Is(err, ErrBrokerClosed) {
				return nil // no more data will ever arrive
			}
			return err
		}
	}
}

// evict removes a worker that is exiting abnormally (handler failure,
// broker closed) from the membership, rebalancing its partitions onto the
// survivors and releasing its slot in the current barrier. During group
// teardown it is a no-op — every worker exits then.
func (g *Group) evict(ordinal int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.runCtx.Err() != nil {
		return
	}
	if slices.Contains(g.cur.members, ordinal) {
		g.newGenerationLocked(removeInt(g.cur.members, ordinal))
	}
	dropWaitLocked(g.cur, ordinal)
}

// consume drains the shard until the generation retires or the group
// stops. The partition cursors live in g.offsets; between the barrier
// handing them to us and our final commit, this worker is their only
// reader and writer.
func (g *Group) consume(gen *generation, tc core.TaskContext, parts []int, jitter dist.Dist) error {
	offsets := make([]int64, len(parts))
	g.mu.Lock()
	for i, q := range parts {
		offsets[i] = g.offsets[q]
	}
	g.mu.Unlock()
	start := 0
	for {
		// The poll runs on the generation context: a rebalance cancels it,
		// which wakes the clock-aware park deterministically.
		i, batch, err := g.broker.FetchOrWait(gen.ctx, g.cfg.Topic, parts, offsets, start, g.cfg.BatchSize)
		if err != nil {
			if gen.ctx.Err() != nil {
				return nil // rebalance or stop; run() re-converges
			}
			var oor *OffsetOutOfRangeError
			if errors.As(err, &oor) {
				// Retention trimmed past our cursor — possible only for
				// offsets below every persisted group cursor (e.g. a group
				// joining an already-trimmed stream at 0), never for this
				// group's own committed progress. Snap to the oldest retained
				// offset and continue: auto.offset.reset=earliest.
				for k, q := range parts {
					if q == oor.Partition && offsets[k] < oor.Oldest {
						offsets[k] = oor.Oldest
						g.mu.Lock()
						if oor.Oldest > g.offsets[q] {
							g.offsets[q] = oor.Oldest
						}
						g.mu.Unlock()
					}
				}
				continue
			}
			return err // ErrBrokerClosed and real failures: run() decides
		}
		// The batch itself completes on the run context: a rebalance
		// interrupts polls, not processing, so the batch commits exactly
		// once before the partition is handed to its next owner.
		if err := runBatch(g.runCtx, tc, g.counters, batch, g.cfg.CostPerMessage, jitter, g.cfg.PureHandler, g.cfg.Handler); err != nil {
			if g.runCtx.Err() != nil {
				return nil
			}
			return err
		}
		offsets[i] += int64(len(batch))
		g.mu.Lock()
		// Monotonic max, not a blind store: the barrier guarantees sole
		// ownership during a tenure, and this guard makes the guarantee
		// robust — even a late retiree's commit can never rewind the cursor
		// a successor has already advanced (broker.Commit is monotone too).
		if offsets[i] > g.offsets[parts[i]] {
			g.offsets[parts[i]] = offsets[i]
		}
		g.mu.Unlock()
		if err := g.broker.Commit(g.cfg.Topic, parts[i], offsets[i]); err != nil {
			// Transport closed (or topic torn down) between the fetch and the
			// commit: exit so run() evicts this worker now instead of
			// discovering the closure on the next poll.
			return err
		}
		if g.cfg.Offsets != nil {
			// Persist after the broker commit, same value: the durable
			// snapshot never runs ahead of the broker's mark, so a restart
			// from it can re-deliver at most the batches committed after the
			// last persist — and with this ordering there are none.
			g.cfg.Offsets.Save(g.cfg.Name, g.cfg.Topic, parts[i], offsets[i])
		}
		if gen.ctx.Err() != nil {
			return nil
		}
		start = i + 1
	}
}

// Stop terminates the workers and waits for their units to finish.
func (g *Group) Stop() {
	g.stop()
	g.mu.Lock()
	units := append([]*core.ComputeUnit(nil), g.units...)
	g.mu.Unlock()
	for _, u := range units {
		u.Wait(context.Background())
	}
	g.markStopped()
}

func removeInt(xs []int, x int) []int {
	return slices.DeleteFunc(slices.Clone(xs), func(v int) bool { return v == x })
}

// unionInts merges two sorted ordinal sets.
func unionInts(a, b []int) []int {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}
