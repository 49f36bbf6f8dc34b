package chaos

import (
	"fmt"
	"slices"
)

// step is one half of an armed fault, run at its injection or recovery
// instant: it acts on the victim and says whether it hit and what the
// injection log should read.
type step func() (hit bool, note string)

// kindInfo is one row of the fault table.
type kindInfo struct {
	// name is the kind's String and its seeding-spine label: a fault
	// draws from "chaos"/<name>/<ordinal>, so renaming a kind re-deals
	// every one of its draws.
	name string
	// windowed kinds have a recovery instant (Fault.Until).
	windowed bool
	// delay kinds draw a lag (Fault.Delay).
	delay bool
	// weight is the kind's count in the default mix.
	weight int
	// flag is the kind's cmd/chaosreplay override-mix flag ("" for none).
	flag string
	// arm resolves the fault's victim when the engine builds its
	// timeline. It returns the injection step and, for a windowed kind,
	// the recovery step, or why the fault has no victim at all (logged as
	// a miss at the injection instant, with no recovery).
	arm func(t Targets, f Fault) (inject, undo step, why string)
}

// row returns the kind's table row, and the zero row for a kind out of
// range.
func (k Kind) row() kindInfo {
	if k < 0 || k >= NumKinds {
		return kindInfo{}
	}
	return kinds[k]
}

// Weight is the kind's fault count in the default mix.
func (k Kind) Weight() int { return k.row().weight }

// Flag is the kind's cmd/chaosreplay override-mix flag, "" for none.
func (k Kind) Flag() string { return k.row().flag }

// link names the two shards of the replication link a ShardLink or
// ReplicaLag fault derives from its Target at the cluster's shard count,
// so injection and recovery name the same link.
func link(target uint64, n int) (a, b int) {
	a = int(target % uint64(n))
	return a, (a + 1 + int((target>>16)%uint64(n-1))) % n
}

// kinds is the fault table, one row per Kind. Adding a kind is one
// constant, one row here, one line of DESIGN.md's fault taxonomy and
// its tests.
var kinds = [NumKinds]kindInfo{
	BackendOutage: {name: "backend-outage", windowed: true, weight: 3,
		arm: func(t Targets, f Fault) (step, step, string) {
			if len(t.Backends) == 0 {
				return nil, nil, "no backends"
			}
			b := t.Backends[int(f.Target%uint64(len(t.Backends)))]
			return func() (bool, string) {
					b.Faults.SetDown(true)
					return true, "down " + b.Name
				}, func() (bool, string) {
					b.Faults.SetDown(false)
					if b.OnRecover != nil {
						b.OnRecover()
					}
					return true, "up " + b.Name
				}, ""
		}},
	PilotCrash: {name: "pilot-crash", weight: 3,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.LivePilots == nil {
				return nil, nil, "no pilot source"
			}
			return func() (bool, string) {
				pilots := t.LivePilots()
				if len(pilots) == 0 {
					return false, "no live pilots"
				}
				p := pilots[int(f.Target%uint64(len(pilots)))]
				p.Kill()
				return true, "killed " + p.ID()
			}, nil, ""
		}},
	EvictStorm: {name: "evict-storm", weight: 1,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Storm == nil {
				return nil, nil, "no storm target"
			}
			return func() (bool, string) {
				n := t.Storm()
				return n > 0, fmt.Sprintf("evicted %d glideins", n)
			}, nil, ""
		}},
	PartitionStall: {name: "partition-stall", windowed: true, weight: 2,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil {
				return nil, nil, "no broker"
			}
			nparts, err := t.Cluster.Partitions(t.Topic)
			if err != nil || nparts == 0 {
				return nil, nil, "no partitions"
			}
			part := int(f.Target % uint64(nparts))
			return func() (bool, string) {
					t.Cluster.SetPartitionDown(t.Topic, part, true)
					return true, fmt.Sprintf("stalled %s[%d]", t.Topic, part)
				}, func() (bool, string) {
					t.Cluster.SetPartitionDown(t.Topic, part, false)
					return true, fmt.Sprintf("restored %s[%d]", t.Topic, part)
				}, ""
		}},
	CommitSkew: {name: "commit-skew", windowed: true, delay: true, weight: 1,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil {
				return nil, nil, "no broker"
			}
			return func() (bool, string) {
					t.Cluster.SetCommitDelay(f.Delay)
					return true, fmt.Sprintf("commit delay %v", f.Delay)
				}, func() (bool, string) {
					t.Cluster.SetCommitDelay(0)
					return true, "commit delay cleared"
				}, ""
		}},
	WorkerChurn: {name: "worker-churn", weight: 3, flag: "churn",
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Group == nil {
				return nil, nil, "no group"
			}
			return func() (bool, string) {
				members := t.Group.Members()
				if len(members) == 0 {
					return false, "no members"
				}
				ord := members[int(f.Target%uint64(len(members)))]
				if err := t.Group.RemoveWorker(ord); err != nil {
					return false, fmt.Sprintf("remove %d: %v", ord, err)
				}
				repl, err := t.Group.AddWorker()
				if err != nil {
					return false, fmt.Sprintf("removed %d, add failed: %v", ord, err)
				}
				return true, fmt.Sprintf("churned worker %d -> %d", ord, repl)
			}, nil, ""
		}},
	// One loss in the default mix is deliberate: the scenario's 3-shard
	// cluster refuses to lose its last live shard, and one loss per run
	// already exercises the whole handoff/re-replication path.
	ShardLoss: {name: "shard-loss", weight: 1, flag: "shardloss",
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil {
				return nil, nil, "no cluster"
			}
			return func() (bool, string) {
				live := t.Cluster.LiveShards()
				if len(live) <= 1 {
					return false, fmt.Sprintf("only %d live shard(s)", len(live))
				}
				id := live[int(f.Target%uint64(len(live)))]
				if err := t.Cluster.FailShard(id); err != nil {
					return false, fmt.Sprintf("fail shard %d: %v", id, err)
				}
				return true, fmt.Sprintf("lost shard %d (%d handoffs total)", id, t.Cluster.Handoffs())
			}, nil, ""
		}},
	ShardLink: {name: "shard-link", windowed: true, weight: 1,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil || t.Cluster.ShardCount() < 2 {
				return nil, nil, "no cluster shards to partition"
			}
			a, b := link(f.Target, t.Cluster.ShardCount())
			return func() (bool, string) {
					if err := t.Cluster.SeverLink(a, b); err != nil {
						return false, fmt.Sprintf("sever %d<->%d: %v", a, b, err)
					}
					return true, fmt.Sprintf("severed link %d<->%d", a, b)
				}, func() (bool, string) {
					if err := t.Cluster.HealLink(a, b); err != nil {
						return false, fmt.Sprintf("heal %d<->%d: %v", a, b, err)
					}
					return true, fmt.Sprintf("healed link %d<->%d", a, b)
				}, ""
		}},
	ReplicaLag: {name: "replica-lag", windowed: true, delay: true, weight: 2, flag: "replicalag",
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil || t.Cluster.ShardCount() < 2 {
				return nil, nil, "no cluster links to lag"
			}
			a, b := link(f.Target, t.Cluster.ShardCount())
			factor := 1 + f.Delay.Seconds()*2
			return func() (bool, string) {
					if err := t.Cluster.SetLinkLag(a, b, factor); err != nil {
						return false, fmt.Sprintf("lag %d<->%d: %v", a, b, err)
					}
					return true, fmt.Sprintf("lagged link %d<->%d x%.1f", a, b, factor)
				}, func() (bool, string) {
					if err := t.Cluster.SetLinkLag(a, b, 1); err != nil {
						return false, fmt.Sprintf("unlag %d<->%d: %v", a, b, err)
					}
					return true, fmt.Sprintf("link %d<->%d back to nominal", a, b)
				}, ""
		}},
	TornReplication: {name: "torn-replication", windowed: true, weight: 1, flag: "tornrepl",
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil || t.Topic == "" || t.Cluster.Replication() < 2 {
				return nil, nil, "no replicated cluster topic"
			}
			nparts, err := t.Cluster.Partitions(t.Topic)
			if err != nil || nparts == 0 {
				return nil, nil, "no partitions"
			}
			part := int(f.Target % uint64(nparts))
			slot := int((f.Target >> 16) % uint64(t.Cluster.Replication()-1))
			return func() (bool, string) {
					if err := t.Cluster.FreezeReplica(t.Topic, part, slot, true); err != nil {
						return false, fmt.Sprintf("freeze %s[%d] slot %d: %v", t.Topic, part, slot, err)
					}
					return true, fmt.Sprintf("tore replication %s[%d] slot %d", t.Topic, part, slot)
				}, func() (bool, string) {
					if err := t.Cluster.FreezeReplica(t.Topic, part, slot, false); err != nil {
						return false, fmt.Sprintf("resume %s[%d] slot %d: %v", t.Topic, part, slot, err)
					}
					return true, fmt.Sprintf("resumed replication %s[%d] slot %d", t.Topic, part, slot)
				}, ""
		}},
	CrashMidCatchup: {name: "crash-mid-catchup", weight: 1,
		arm: func(t Targets, f Fault) (step, step, string) {
			if t.Cluster == nil {
				return nil, nil, "no cluster"
			}
			return func() (bool, string) {
				var syncing []int // shards recruited on any partition, ascending
				for _, pl := range t.Cluster.Placement() {
					syncing = append(syncing, pl.Syncing...)
				}
				slices.Sort(syncing)
				syncing = slices.Compact(syncing)
				if len(syncing) == 0 {
					return false, "no shard mid-catchup"
				}
				if len(t.Cluster.LiveShards()) <= 1 {
					return false, "only one live shard"
				}
				id := syncing[int(f.Target%uint64(len(syncing)))]
				if err := t.Cluster.FailShard(id); err != nil {
					return false, fmt.Sprintf("fail syncing shard %d: %v", id, err)
				}
				return true, fmt.Sprintf("crashed shard %d mid-catchup", id)
			}, nil, ""
		}},
}
