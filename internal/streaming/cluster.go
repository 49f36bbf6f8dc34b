package streaming

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
)

// Cluster federates N broker shards behind the single client-facing Bus
// API (DESIGN.md "Federation"): producers and consumer groups talk to
// the cluster as to one broker — which is what one shard at replication 1
// is — while every member shard of a partition holds its own physical copy
// of the log (fedPart.logs) and every partition's log is *replicated* — the
// leader appends locally, per-link catch-up runners stream acknowledged batches
// to the followers in virtual time, and a per-partition acknowledged
// high watermark (the minimum log end across full members) gates what
// consumers may fetch and commit. Only quorum-acknowledged offsets are
// visible, so a publish returns when its batch is replicated, and a
// slow or severed replication link back-pressures producers instead of
// losing data.
//
// Handoff is a genuine recovery protocol. When a leader shard dies the
// control plane promotes the first fully-replicated survivor, bumps the
// leadership epoch, truncates the promoted log to the acknowledged
// watermark (its un-acked suffix may be stale), and restores the
// coordinator's commit mark onto it; the deposed shard's locally-acked
// suffix — and any follower that replicated past the watermark — now
// *diverges* from the new leader's chain. Each batch carries its
// leadership epoch, so a log is summarized by a compact epoch-span
// chain, and the catch-up runners detect divergence by chain compare
// (plan.DivergencePoint), repair it by truncate-to-watermark, and
// re-stream the authoritative suffix.
//
// Placement stays planner state: replica sets come from
// plan.ShardReplicas, failures reconverge through plan.DetectShardDrift,
// and divergence/lag classification is plan.ClassifyReplica — pure
// functions, so same-seed runs place, re-place and repair identically.
type Cluster struct {
	cfg     ClusterConfig
	offsets *OffsetStore
	clock   vclock.Clock

	runCtx context.Context
	stopFn context.CancelFunc

	// mu is the broker side's one lock: it guards the control plane below
	// and every replica log with its waiter lists (fedPart.logs), so a copy
	// is resolved and used in one critical section. Order: mu → Event.mu →
	// Virtual.mu (DESIGN.md "One lock level").
	mu       sync.Mutex
	closed   bool
	up       []bool      // shard liveness, indexed by shard id
	severed  [][]bool    // severed[a][b]: replication link a<->b is down
	lagFac   [][]float64 // per-link catch-up pacing multiplier (0 = nominal)
	topics   map[string]*fedTopic
	order    []*fedTopic // creation order: deterministic control sweeps
	handoffs int
	repairs  int
	// commitDelay is the injected commit skew (chaos), zero normally.
	commitDelay time.Duration
	// ctrl holds waiters parked on control-plane state (fences, epochs,
	// links, stalls): fired and swept on every control change and on
	// Close, so nothing outlives the state it waits on.
	ctrl []waitReg
}

// fedTopic is the control-plane view of one topic.
type fedTopic struct {
	name  string
	parts []*fedPart
	// rr is the round-robin cursor for key-less publishes. It is shared
	// mutable state across all producers of the topic, advanced under the
	// cluster lock while a batch's partitions are being assigned — so
	// placement is a pure function of the topic-wide publish order. That
	// order is seed-determined (producers are serialized by the executor's
	// token), which makes key-less placement bit-identical across
	// same-seed runs (TestKeylessPlacementDeterministicAcrossProducers).
	rr int
}

// fedPart is everything the cluster knows about one partition: the
// control-plane state and, hanging off it, every replica's log. Topics are
// never deleted, so a *fedPart is stable for the cluster's life.
type fedPart struct {
	idx      int
	epoch    int   // leader epoch, bumped per handoff
	replicas []int // shard ids, leader first, live by invariant
	// logs[s] is shard s's copy of the log, non-nil exactly while s is a
	// member (in replicas, full or syncing): made at placement and at
	// recruitment, closed and dropped when s dies — a dead copy is garbage,
	// not state. The only path from a partition to a log.
	logs []*partition
	// syncing lists the recruits still catching up: members whose log end
	// has not yet reached the leader's. They replicate like any follower
	// but do not count toward the acknowledged watermark.
	syncing []int
	// availableAt fences the partition (fetches and publishes park on
	// ctrl) until the handoff completes; zero means available.
	availableAt time.Time
	// stalled marks an injected fetch blackout (chaos): consumers park as
	// if no data were acknowledged. Producers are unaffected.
	stalled bool
	// frozen[slot] freezes replication into follower slot `slot`
	// (replicas[1+slot]) — the torn-replication chaos fault.
	frozen []bool
	// acked is the acknowledged high watermark: offsets below it are on
	// every full member. Monotone. commit is the coordinator's commit
	// mark — the cluster-truth cursor that survives leader handoffs.
	acked  int64
	commit int64
	// ackedAtEpoch[e] is the watermark at the instant epoch e was
	// installed — the truncation point of that handoff, which tells a
	// mid-publish producer exactly how much of its batch survived. One
	// entry per epoch; epochs are bounded by shard deaths.
	ackedAtEpoch []int64
	// ackWait holds producers parked until acked reaches their batch end
	// or the epoch moves; fired on watermark advance and on handoff.
	ackWait []waitReg
}

// ClusterConfig configures a Cluster. AppendCost, SegmentSize,
// MaxInflightBytes and OnCommit apply to every shard's copy of a log —
// SegmentSize included: it sets every replica log's segment arithmetic,
// not what an untouched or lightly used copy costs.
type ClusterConfig struct {
	// Name labels the cluster (default "cluster").
	Name string
	// Shards is the number of broker shards (default 3).
	Shards int
	// Replication is the per-partition replica count, leader included
	// (default 2, clamped to Shards).
	Replication int
	// HandoffDelay is the modeled leader-election time: a partition whose
	// leader shard fails is unavailable for this long before the promoted
	// replica starts serving (default 500ms).
	HandoffDelay time.Duration
	// CatchupBytesPerSec paces replication: each leader→follower link
	// streams batches at this modeled rate (default 64 MiB/s). Chaos
	// replica-lag faults multiply a link's pace via SetLinkLag.
	CatchupBytesPerSec int64
	// OnRetention, if set, observes every retention evaluation (each
	// offset persist): the leader's resident bytes and oldest retained
	// offset after any trim. Property tests assert the resident bound
	// here, at exactly the instants the contract speaks about.
	OnRetention func(topic string, partition int, resident, oldest int64)
	// OnAcked, if set, observes every advance of a partition's
	// acknowledged high watermark: from → to, to > from. Invoked under
	// the cluster lock — callbacks must not call back into the cluster.
	// The E13 inline invariants prove watermark monotonicity here.
	OnAcked func(topic string, partition int, from, to int64)
	// PlantStaleHandoff plants the deliberate stale-handoff defect, for
	// tests and cmd/chaosreplay only: a promoted leader restores the
	// coordinator commit mark from its own lazily-replicated local mark
	// (stale by up to one replication round), and the catch-up runners skip
	// divergence repair, streaming blindly past a follower's stale suffix.
	// Together those surface as the cursor-rewind and
	// diverged-replica-after-repair invariant violations the chaos suite
	// exists to catch.
	PlantStaleHandoff bool

	// AppendCost is the modeled broker-side cost per message appended to a
	// partition; it bounds per-partition throughput at 1/AppendCost msg/s.
	// Default 100µs (≈10k msg/s per partition).
	AppendCost time.Duration
	// FetchLatency is the modeled cost per consumer long-poll round trip
	// (charged once per Fetch/FetchOrWait call, however many messages the
	// poll returns and however long it parks). Default 1ms.
	FetchLatency time.Duration
	// SegmentSize is the number of messages per log segment (default
	// 4096): the unit of offset→segment arithmetic, of a fetched view's
	// upper bound and of retention trimming. It is not a memory commitment
	// — a partition that has never filled a segment holds an array sized
	// to its contents (see Log). Fetched views are stable because a
	// published slot is never rewritten while a view can reach it.
	SegmentSize int
	// MaxInflightBytes bounds, per partition, the bytes published but not
	// yet committed (see Commit). When the bound is hit, publishes to that
	// partition block in modeled time until consumers commit — the
	// backpressure that keeps a lagging consumer group from being buried.
	// Zero disables backpressure.
	MaxInflightBytes int64
	// OnCommit, if set, observes every *applied* commit: the partition's
	// mark moved from `from` to `through`. Clamped and no-op commits are
	// not reported. Invoked under the cluster lock, so callbacks see
	// per-partition commits in application order and — as with OnAcked —
	// must not call back into the cluster. The chaos invariant checker uses
	// this to prove consumer cursors never rewind.
	OnCommit func(topic string, partition int, from, through int64)
	// Clock supplies virtual time; defaults to a private vclock.Virtual.
	Clock vclock.Clock
}

// replBatchMax bounds one replication batch (messages per runner round).
const replBatchMax = 4096

// NewCluster creates a federated cluster of cfg.Shards broker shards,
// all up, each with its own physical log.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Name == "" {
		cfg.Name = "cluster"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > cfg.Shards {
		cfg.Replication = cfg.Shards
	}
	if cfg.HandoffDelay <= 0 {
		cfg.HandoffDelay = 500 * time.Millisecond
	}
	if cfg.CatchupBytesPerSec <= 0 {
		cfg.CatchupBytesPerSec = 64 << 20
	}
	if cfg.AppendCost <= 0 {
		cfg.AppendCost = 100 * time.Microsecond
	}
	if cfg.FetchLatency <= 0 {
		cfg.FetchLatency = time.Millisecond
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(vclock.Epoch)
	}
	runCtx, stop := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:     cfg,
		offsets: NewOffsetStore(),
		clock:   cfg.Clock,
		runCtx:  runCtx,
		stopFn:  stop,
		up:      make([]bool, cfg.Shards),
		severed: make([][]bool, cfg.Shards),
		lagFac:  make([][]float64, cfg.Shards),
		topics:  make(map[string]*fedTopic),
	}
	for i := range c.up {
		c.up[i] = true
		c.severed[i] = make([]bool, cfg.Shards)
		c.lagFac[i] = make([]float64, cfg.Shards)
	}
	c.offsets.OnSave(c.onSave)
	return c
}

// Clock returns the cluster's clock.
func (c *Cluster) Clock() vclock.Clock { return c.clock }

// Offsets returns the cluster's consumer-offset KV; wire it into
// GroupConfig.Offsets so group commits drive retention.
func (c *Cluster) Offsets() *OffsetStore { return c.offsets }

// ShardCount returns the configured shard count.
func (c *Cluster) ShardCount() int { return c.cfg.Shards }

// Replication returns the per-partition replica target.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// LiveShards returns the ids of the shards currently up, ascending.
func (c *Cluster) LiveShards() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

func (c *Cluster) liveLocked() []int {
	live := make([]int, 0, len(c.up))
	for i, ok := range c.up {
		if ok {
			live = append(live, i)
		}
	}
	return live
}

// Handoffs returns how many leader handoffs the cluster has performed.
func (c *Cluster) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffs
}

// Repairs returns how many diverged-replica repairs (truncate +
// re-stream) the catch-up runners have performed.
func (c *Cluster) Repairs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repairs
}

// recomputeAckedLocked advances a partition's acknowledged watermark to
// the minimum log end across full members (recruits excluded), firing
// OnAcked, parked producers and the leader's fetch waiters on progress.
// The watermark is monotone: an unclean promotion (no full member
// survived) can leave it above the new leader's end, and the gap
// surfaces as data loss through the completeness invariants rather than
// as a silent rewind. Caller holds c.mu.
func (c *Cluster) recomputeAckedLocked(t *fedTopic, p *fedPart) {
	lo := int64(-1)
	for _, s := range p.replicas {
		if containsInt(p.syncing, s) {
			continue
		}
		if e := p.logs[s].end; lo < 0 || e < lo {
			lo = e
		}
	}
	if lo > p.acked {
		from := p.acked
		p.acked = lo
		if c.cfg.OnAcked != nil {
			c.cfg.OnAcked(t.name, p.idx, from, lo)
		}
		fireList(&p.ackWait)
		// Wake parked fetchers *after* the watermark is in place: a waiter
		// that re-checks immediately sees the new fetchable range.
		fireList(&p.logs[p.replicas[0]].waiters)
	}
}

// CreateTopic creates a topic: it places each partition's
// replica set on the live shard ring via plan.ShardReplicas (placement
// never picks a dead shard), gives every member an empty copy of the log,
// and starts the partition's catch-up runners (one per follower slot).
// Creating an existing topic with the same partition count is a no-op.
func (c *Cluster) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("streaming: topic %q needs at least one partition", name)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrBrokerClosed
	}
	if t, ok := c.topics[name]; ok {
		c.mu.Unlock()
		if len(t.parts) != partitions {
			return fmt.Errorf("streaming: topic %q exists with %d partitions", name, len(t.parts))
		}
		return nil
	}
	live := c.liveLocked()
	if len(live) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("streaming: cluster %q has no live shards", c.cfg.Name)
	}
	t := &fedTopic{name: name, parts: make([]*fedPart, partitions)}
	for q := range t.parts {
		p := &fedPart{
			idx:          q,
			replicas:     plan.ShardReplicas(name, q, live, c.cfg.Replication),
			logs:         make([]*partition, c.cfg.Shards),
			frozen:       make([]bool, c.cfg.Replication-1),
			ackedAtEpoch: []int64{0},
		}
		for _, s := range p.replicas {
			p.logs[s] = c.newLog()
		}
		t.parts[q] = p
	}
	c.topics[name] = t
	c.order = append(c.order, t)
	c.mu.Unlock()
	// One catch-up runner per (partition, follower slot), spawned in
	// deterministic order so runner identity is stable across runs.
	for _, p := range t.parts {
		for s := 0; s < c.cfg.Replication-1; s++ {
			p, s := p, s
			c.clock.Go(func() { c.replicate(t, p, s) })
		}
	}
	return nil
}

// newLog makes one member's empty copy of a partition log.
func (c *Cluster) newLog() *partition {
	return &partition{Log: Log{segSize: c.cfg.SegmentSize}}
}

// fedPartition resolves one partition by name, for the accessors that are
// handed names; everything that already holds a *fedTopic indexes t.parts.
// Caller holds c.mu.
func (c *Cluster) fedPartition(topic string, partition int) (*fedPart, error) {
	t, ok := c.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topic)
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("streaming: partition %d out of range for %q", partition, topic)
	}
	return t.parts[partition], nil
}

// LeaderOf returns the shard currently leading a partition.
func (c *Cluster) LeaderOf(topic string, partition int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.replicas[0], nil
}

// AckedOffset returns a partition's acknowledged high watermark — the
// next offset awaiting quorum acknowledgement. Only offsets below it are
// fetchable or committable.
func (c *Cluster) AckedOffset(topic string, partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.acked, nil
}

// replicaLagLocked returns the maximum replication lag (leader log end −
// follower log end, in messages) across a partition's full members.
// Caller holds c.mu.
func (c *Cluster) replicaLagLocked(p *fedPart) int64 {
	lEnd := p.logs[p.replicas[0]].end
	var max int64
	for _, s := range p.replicas[1:] {
		if containsInt(p.syncing, s) {
			continue
		}
		if lag := lEnd - p.logs[s].end; lag > max {
			max = lag
		}
	}
	return max
}

// UnderReplicated counts partitions below their replication target,
// still syncing a recruit, or carrying nonzero replication lag (a full
// follower whose log end trails the leader's) — so drift detection sees
// slow followers, not just missing ones.
func (c *Cluster) UnderReplicated() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.cfg.Replication
	if live := len(c.liveLocked()); want > live {
		want = live
	}
	n := 0
	for _, t := range c.order {
		for _, p := range t.parts {
			if len(p.replicas) < want || len(p.syncing) > 0 || c.replicaLagLocked(p) > 0 {
				n++
			}
		}
	}
	return n
}

// ShardPlacement is one partition's placement, the planner-visible
// snapshot row.
type ShardPlacement struct {
	Topic     string
	Partition int
	Epoch     int
	Leader    int
	Replicas  []int
	// Syncing is true while a recruited follower is still replaying the
	// log (re-replication in progress).
	Syncing bool
	// Lag is the partition's maximum replication lag in messages (leader
	// log end − follower log end, over full members).
	Lag int64
	// AckedHW is the acknowledged high watermark at snapshot time.
	AckedHW int64
}

// Placement snapshots every partition's placement in topic-creation and
// partition order — deterministic, so placement can feed state hashes.
func (c *Cluster) Placement() []ShardPlacement {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ShardPlacement
	for _, t := range c.order {
		for _, p := range t.parts {
			out = append(out, ShardPlacement{
				Topic: t.name, Partition: p.idx, Epoch: p.epoch,
				Leader:   p.replicas[0],
				Replicas: append([]int(nil), p.replicas...),
				Syncing:  len(p.syncing) > 0,
				Lag:      c.replicaLagLocked(p),
				AckedHW:  p.acked,
			})
		}
	}
	return out
}

// SyncingShards returns the ids of shards currently catching up as
// recruits on any partition, ascending — the crash-mid-catchup chaos
// fault targets these.
func (c *Cluster) SyncingShards() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make([]bool, len(c.up))
	for _, t := range c.order {
		for _, p := range t.parts {
			for _, s := range p.syncing {
				seen[s] = true
			}
		}
	}
	var out []int
	for i, ok := range seen {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// CheckReplicaConsistency classifies every replica of a topic against
// its leader's epoch-span chain and reports the diverged ones — replicas
// holding offsets whose epoch disagrees with the leader's, or offsets
// past the leader's end. After quiescence (no faults in flight, lag
// drained) every report is an invariant violation: repair should have
// truncated and re-streamed them.
func (c *Cluster) CheckReplicaConsistency(topic string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topic]
	if !ok {
		return nil
	}
	var out []string
	for _, p := range t.parts {
		leader := p.replicas[0]
		lFirst, lEnd, _, lSpans := p.logs[leader].Snapshot(nil)
		for _, f := range p.replicas[1:] {
			fFirst, fEnd, _, fSpans := p.logs[f].Snapshot(nil)
			r := plan.ClassifyReplica(lSpans, fSpans, max(lFirst, fFirst), lEnd, fEnd)
			if r.State == plan.ReplicaDiverged {
				out = append(out, fmt.Sprintf("%s[%d] shard %d diverged from leader %d at offset %d (leader end %d, replica end %d)",
					t.name, p.idx, f, leader, r.DivergedAt, lEnd, fEnd))
			}
		}
	}
	return out
}

// FailShard permanently fails one shard: every partition it led fences
// (fetches and publishes park) for the modeled election delay, then
// promotion runs the recovery protocol — the first fully-replicated
// survivor becomes leader under a bumped epoch, its log is truncated to
// the acknowledged watermark (the un-acked suffix may be stale), and the
// coordinator's commit mark is restored onto it; every partition the
// dead shard followed recruits a replacement that re-replicates the log
// over its catch-up link in virtual time. Failing the last live shard, or
// the only holder of any partition, is refused with nothing changed (this
// model has no cold storage to recover a leaderless partition from).
func (c *Cluster) FailShard(id int) error {
	c.mu.Lock()
	if id < 0 || id >= len(c.up) {
		c.mu.Unlock()
		return fmt.Errorf("streaming: cluster %q has no shard %d", c.cfg.Name, id)
	}
	if !c.up[id] {
		c.mu.Unlock()
		return nil // already down
	}
	live := c.liveLocked()
	if len(live) <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("streaming: cannot fail shard %d: last live shard of %q", id, c.cfg.Name)
	}
	for _, t := range c.order {
		for _, p := range t.parts {
			if len(p.replicas) == 1 && p.replicas[0] == id {
				c.mu.Unlock()
				return fmt.Errorf("streaming: cannot fail shard %d: only holder of %s[%d]", id, t.name, p.idx)
			}
		}
	}
	c.up[id] = false
	live = c.liveLocked()
	now := c.clock.Now()

	type pending struct {
		t     *fedTopic
		p     *fedPart
		epoch int
		at    time.Time
	}
	var fenced []pending
	for _, t := range c.order {
		for _, p := range t.parts {
			if !containsInt(p.replicas, id) {
				continue
			}
			wasLeader := p.replicas[0] == id
			p.replicas = removeShard(p.replicas, id)
			p.syncing = removeShard(p.syncing, id)
			if wasLeader {
				c.handoffs++
				p.epoch++
				p.ackedAtEpoch = append(p.ackedAtEpoch, p.acked)
				// Promote the first fully-replicated survivor; only when no
				// full member is left does a mid-catchup recruit take over —
				// an *unclean* promotion whose missing suffix is genuine data
				// loss, surfaced by the completeness invariants.
				nl := -1
				for _, s := range p.replicas {
					if !containsInt(p.syncing, s) {
						nl = s
						break
					}
				}
				if nl < 0 {
					nl = p.replicas[0]
					p.syncing = removeShard(p.syncing, nl)
					c.clock.Mark(fmt.Sprintf("unclean promotion %s[%d] shard %d epoch %d",
						t.name, p.idx, nl, p.epoch), uint64(p.epoch))
				}
				p.replicas = removeShard(p.replicas, nl)
				p.replicas = append([]int{nl}, p.replicas...)
				// Recovery: the promoted log's un-acked suffix was never on
				// quorum — truncate to the watermark; re-streaming under the
				// new epoch replaces it with the authoritative history. The
				// coordinator's commit mark is re-applied (no OnCommit: it
				// was observed on the deposed leader) because the promoted
				// follower's lazily-replicated local mark may trail it.
				np := p.logs[nl]
				np.TruncateTo(p.acked)
				np.Epoch = p.epoch
				if c.cfg.PlantStaleHandoff {
					// Planted defect: restore the coordinator mark from the
					// stale local one, so the next applied commit rewinds the
					// cursor.
					p.commit = np.committed
				} else {
					np.SetCommitted(p.commit)
				}
				avail := now.Add(c.cfg.HandoffDelay)
				p.availableAt = avail
				// The handoff decision lands in the schedule recorder: a
				// bisected failing seed names this exact instant.
				c.clock.Mark(fmt.Sprintf("federation handoff %s[%d] shard %d -> %d epoch %d",
					t.name, p.idx, id, nl, p.epoch), uint64(p.epoch))
				fenced = append(fenced, pending{t: t, p: p, epoch: p.epoch, at: avail})
			}
			// Re-replication: reconverge the replica set through the
			// planner's drift classifier. Recruits join as syncing members;
			// their catch-up runner bootstraps and streams the real log.
			for _, d := range plan.DetectShardDrift(p.replicas, live, c.cfg.Replication) {
				if d.Kind != plan.ShardDriftUnderReplicated {
					continue
				}
				p.replicas = append(p.replicas, d.Shard)
				p.syncing = append(p.syncing, d.Shard)
				p.logs[d.Shard] = c.newLog()
			}
			// The dead member may have been the watermark's minimum (e.g. a
			// follower starved behind a severed link): with it gone, quorum
			// may already cover more of the leader's log — recompute, or
			// producers waiting on its lag would park forever.
			c.recomputeAckedLocked(t, p)
			// Membership and leadership moved: wake parked producers (their
			// batch may need re-appending) and control waiters (runners must
			// re-resolve their follower slots).
			fireList(&p.ackWait)
		}
	}
	fireList(&c.ctrl)
	// Close and drop the dead shard's copies, in topic-creation × partition
	// order: anything parked on one (a leader append under backpressure, a
	// runner waiting for data) wakes, sees it closed and re-routes through
	// the new placement.
	for _, t := range c.order {
		for _, p := range t.parts {
			if lp := p.logs[id]; lp != nil {
				lp.close()
				p.logs[id] = nil
			}
		}
	}
	c.mu.Unlock()

	if len(fenced) > 0 {
		// One clock participant per failure walks the handoff completions
		// in instant order and reopens each partition whose epoch is still
		// the one this failure installed.
		sort.SliceStable(fenced, func(a, b int) bool { return fenced[a].at.Before(fenced[b].at) })
		c.clock.Go(func() {
			for _, f := range fenced {
				if d := f.at.Sub(c.clock.Now()); d > 0 {
					if !c.clock.Sleep(c.runCtx, d) {
						return
					}
				}
				c.mu.Lock()
				if f.p.epoch == f.epoch {
					f.p.availableAt = time.Time{}
					fireList(&c.ctrl)
				}
				c.mu.Unlock()
			}
		})
	}
	return nil
}

// SeverLink cuts the replication link between shards a and b: catch-up
// streams over the link freeze, so partitions whose leader needs it to
// reach a full follower stop advancing their watermark and publishes
// park in the acknowledgement wait until HealLink. Fetches of already
// acknowledged data are unaffected.
func (c *Cluster) SeverLink(a, b int) error { return c.setLink(a, b, true) }

// HealLink restores the replication link between shards a and b; frozen
// catch-up streams resume and the backlog drains at the link's pace.
func (c *Cluster) HealLink(a, b int) error { return c.setLink(a, b, false) }

func (c *Cluster) setLink(a, b int, sever bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a < 0 || a >= len(c.up) || b < 0 || b >= len(c.up) || a == b {
		return fmt.Errorf("streaming: cluster %q has no shard link %d<->%d", c.cfg.Name, a, b)
	}
	c.severed[a][b] = sever
	c.severed[b][a] = sever
	fireList(&c.ctrl)
	return nil
}

// SetLinkLag multiplies the catch-up pacing of the replication link
// between shards a and b: factor 2 halves the link's modeled bandwidth,
// 1 (or 0) restores nominal pace. The chaos replica-lag fault drives
// this to stretch follower lag windows.
func (c *Cluster) SetLinkLag(a, b int, factor float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a < 0 || a >= len(c.up) || b < 0 || b >= len(c.up) || a == b {
		return fmt.Errorf("streaming: cluster %q has no shard link %d<->%d", c.cfg.Name, a, b)
	}
	if factor < 1 {
		factor = 1
	}
	c.lagFac[a][b] = factor
	c.lagFac[b][a] = factor
	fireList(&c.ctrl)
	return nil
}

// FreezeReplica freezes (frozen=true) or resumes replication into one
// follower slot of a partition — the torn-replication chaos fault: the
// follower stops mid-stream with a clean batch boundary (batches are
// discarded, never half-applied) and falls behind until resumed.
func (c *Cluster) FreezeReplica(topic string, partition, slot int, frozen bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return err
	}
	if slot < 0 || slot >= len(p.frozen) {
		return fmt.Errorf("streaming: %s[%d] has no replica slot %d", topic, partition, slot)
	}
	p.frozen[slot] = frozen
	fireList(&c.ctrl)
	return nil
}

// SetPartitionDown opens (down=true) or closes an injected fetch
// blackout on one partition: consumers park as if nothing were
// acknowledged past their offsets; producers are unaffected. The chaos
// engine is the intended caller.
func (c *Cluster) SetPartitionDown(topic string, partition int, down bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return err
	}
	p.stalled = down
	fireList(&c.ctrl)
	return nil
}

// SetCommitDelay injects commit skew: every subsequent Commit holds the
// acknowledgement in flight for d of modeled time before applying it.
// Zero restores immediate commits. The chaos engine toggles this to
// stretch the window in which backpressure and rebalance decisions act on
// stale commit marks.
func (c *Cluster) SetCommitDelay(d time.Duration) {
	c.mu.Lock()
	c.commitDelay = d
	c.mu.Unlock()
}

// linkLagLocked returns the pacing multiplier of link a<->b (≥1).
// Caller holds c.mu.
func (c *Cluster) linkLagLocked(a, b int) float64 {
	f := c.lagFac[a][b]
	if f < 1 {
		return 1
	}
	return f
}

// replicate is one partition's catch-up runner for one follower slot:
// it resolves the slot's current follower, detects and repairs diverged
// suffixes (epoch chain compare, truncate-to-watermark, re-stream),
// bootstraps recruits from behind the retention floor, and streams the
// leader's log batch by batch, paced in virtual time by the link's
// bandwidth. After each pacing sleep the control state is re-validated
// and stale batches are discarded — a torn stream never half-applies.
func (c *Cluster) replicate(t *fedTopic, p *fedPart, slot int) {
	// Scratch buffers for the per-round epoch-chain snapshots: chains are
	// a handful of spans, so after the first rounds these never allocate.
	var lSpans, fSpans []plan.EpochSpan
	var ws waitSlot // the runner's one wait object, re-armed per park
	for {
		// First section: resolve the slot, snapshot both copies and decide the
		// round — park, repair, bootstrap, promote, or take a batch.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		leader := p.replicas[0]
		follower := -1
		if 1+slot < len(p.replicas) {
			follower = p.replicas[1+slot]
		}
		if follower < 0 || c.severed[leader][follower] || p.frozen[slot] {
			if !c.park(c.runCtx, ws.arm(c.clock), &c.ctrl) {
				return
			}
			continue
		}
		epoch, lag := p.epoch, c.linkLagLocked(leader, follower)
		lp, fp := p.logs[leader], p.logs[follower]
		// Compare epoch chains over the shared range (the planted defect skips
		// the compare, streaming blindly past a stale suffix — the
		// diverged-replica-after-repair invariant catches it).
		var fFirst, fEnd, lFirst, lEnd, lCommitted int64
		fFirst, fEnd, _, fSpans = fp.Snapshot(fSpans)
		lFirst, lEnd, lCommitted, lSpans = lp.Snapshot(lSpans)
		if at, diverged := plan.DivergencePoint(lSpans, fSpans, max(lFirst, fFirst), lEnd, fEnd); diverged && !c.cfg.PlantStaleHandoff {
			// Repair: truncate to the divergence point, re-stream from there.
			fp.TruncateTo(at)
			c.clock.Mark(fmt.Sprintf("replica repair %s[%d] shard %d truncated to %d (%d dropped)",
				t.name, p.idx, follower, at, fEnd-at), uint64(at))
			c.repairs++
			c.mu.Unlock()
			continue
		}
		if fEnd < lFirst {
			// Recruit starting behind the leader's retention floor: no
			// history to stream — bootstrap an empty log at the floor.
			fp.ResetTo(lFirst)
			c.mu.Unlock()
			continue
		}
		// The batch: a zero-copy one-segment view from the follower's end,
		// plus its payload total read off the leader's cum (what the link is
		// paced by).
		msgs := lp.View(fEnd, replBatchMax)
		if len(msgs) == 0 {
			// Caught up. Promote a recruit to full member, else park until
			// the leader appends or the control plane changes.
			if containsInt(p.syncing, follower) {
				p.syncing = removeShard(p.syncing, follower)
				c.clock.Mark(fmt.Sprintf("replica synced %s[%d] shard %d at %d",
					t.name, p.idx, follower, fEnd), uint64(fEnd))
				c.recomputeAckedLocked(t, p)
				fireList(&c.ctrl)
				c.mu.Unlock()
				continue
			}
			if !c.park(c.runCtx, ws.arm(c.clock), &lp.waiters, &c.ctrl) {
				return
			}
			continue
		}
		bytes := lp.BytesThrough(fEnd+int64(len(msgs))) - lp.BytesThrough(fEnd)
		c.mu.Unlock()

		// Pace the batch over the link in virtual time.
		d := time.Duration(float64(bytes) / float64(c.cfg.CatchupBytesPerSec) * float64(time.Second) * lag)
		if d > 0 && !c.clock.Sleep(c.runCtx, d) {
			return
		}

		// Second section: re-validate after the sleep — if leadership,
		// membership, the epoch or the link moved while the batch was in
		// flight, the stream is torn: discard the batch and re-resolve.
		// Otherwise the pre-pacing chain still describes the batch: an intact
		// stream means the leader appended under one epoch throughout, and
		// spans only ever grow at or above the batch's end. No OnCommit for
		// the lazily advanced mark: the commit was observed, exactly once, on
		// the leader.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if p.epoch == epoch && p.replicas[0] == leader &&
			1+slot < len(p.replicas) && p.replicas[1+slot] == follower &&
			!c.severed[leader][follower] && !p.frozen[slot] &&
			p.logs[follower].AppendReplicated(msgs, lSpans, lCommitted) == nil {
			c.recomputeAckedLocked(t, p)
		}
		c.mu.Unlock()
	}
}

// onSave runs at every consumer-offset persist: trim every replica's log
// below the low-watermark of all persisted group cursors (whole sealed
// segments only — each floor stays segment-aligned; follower trims
// self-clamp to their lazily-replicated commit marks), then report the
// leader's retention state. This is the bounded-memory contract:
// trimming happens at exactly the instants the durable state advances,
// and never above what every registered group has durably consumed.
func (c *Cluster) onSave(_ string, topic string, partition int) {
	lw, ok := c.offsets.LowWatermark(topic, partition)
	if !ok {
		return
	}
	c.mu.Lock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		c.mu.Unlock()
		return
	}
	var resident, oldest int64
	for i, s := range p.replicas {
		lp := p.logs[s]
		lp.Trim(lw)
		if i == 0 {
			resident, oldest = lp.Resident(), lp.first
		}
	}
	c.mu.Unlock()
	if c.cfg.OnRetention != nil {
		c.cfg.OnRetention(topic, partition, resident, oldest)
	}
}

// OldestOffset returns a partition's retention floor on its current
// leader: the oldest offset a fetch can still serve.
func (c *Cluster) OldestOffset(topic string, partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.logs[p.replicas[0]].first, nil
}

// Close stops the replication plane and control walkers, wakes
// everything parked on cluster state (producers in acknowledgement
// waits, fetchers behind fences, catch-up runners), and closes every
// copy of every log — so a Close mid-handoff unwinds cleanly with no
// leaked waiters or goroutines.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	wake := c.ctrl // control waiters first, then each partition's producers
	c.ctrl = nil
	for _, t := range c.order {
		for _, p := range t.parts {
			wake = append(wake, p.ackWait...)
			p.ackWait = nil
		}
	}
	c.mu.Unlock()
	c.stopFn()
	fireList(&wake)
	// Shard-major — shard 0's copies over all topics, then shard 1's — the
	// order waiters wake in.
	c.mu.Lock()
	for s := range c.up {
		for _, t := range c.order {
			for _, p := range t.parts {
				if lp := p.logs[s]; lp != nil {
					lp.close()
				}
			}
		}
	}
	c.mu.Unlock()
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func removeShard(xs []int, x int) []int {
	out := xs[:0]
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}
