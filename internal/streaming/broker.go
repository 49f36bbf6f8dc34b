package streaming

import (
	"time"

	"gopilot/internal/vclock"
)

// Residue for the frozen benchmark harness — delete with ROADMAP item 1.
// cmd/bench's streaming.broker.* ladder rungs name these; nothing else in
// the tree may (tools/seed-audit.sh rule 10). The single-broker deployment
// is NewCluster(ClusterConfig{Shards: 1, Replication: 1}).

// BrokerConfig is the slice of ClusterConfig the harness sets.
type BrokerConfig struct {
	Name         string
	AppendCost   time.Duration
	FetchLatency time.Duration
	SegmentSize  int
	Clock        vclock.Clock
}

// Broker is a one-shard, replication-1 Cluster.
type Broker struct{ *Cluster }

// NewBroker maps cfg onto a 1×1 cluster.
func NewBroker(cfg BrokerConfig) *Broker {
	return &Broker{NewCluster(ClusterConfig{
		Name: cfg.Name, Shards: 1, Replication: 1, AppendCost: cfg.AppendCost,
		FetchLatency: cfg.FetchLatency, SegmentSize: cfg.SegmentSize, Clock: cfg.Clock,
	})}
}

// Trim trims the one shard's copy directly (see Log.Trim) and returns the
// oldest retained offset after the trim.
func (b *Broker) Trim(topic string, partition int, below int64) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.logs[0].Trim(below), nil
}
