// Package streaming is the fixture's data plane: Cluster is the one Bus,
// Cluster.mu its one lock, and plan.Replicas makes its replica decisions.
package streaming

import (
	"sync"

	"spine/internal/plan"
)

// Bus is what a client publishes to.
type Bus interface{ Publish(topic string) error }

var _ Bus = (*Cluster)(nil)

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	OnCommit func(topic string, partition int, from, through int64)
	OnAcked  func(topic string, partition int, from, to int64)
}

// Cluster is the one Bus.
type Cluster struct {
	mu    sync.Mutex
	cfg   ClusterConfig
	parts []partition
}

type partition struct {
	plan.Replicas
	log replicaLog
}

// replicaLog is a copy of a partition's log; Epoch is its own stamp.
type replicaLog struct{ Epoch int64 }

// NewCluster builds a one-partition cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	return &Cluster{cfg: cfg, parts: make([]partition, 1)}
}

// Publish appends one message and acknowledges it.
func (c *Cluster) Publish(topic string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &c.parts[0]
	p.Ack(p.Acked + 1)
	if c.cfg.OnAcked != nil {
		c.cfg.OnAcked(topic, 0, p.Acked-1, p.Acked)
	}
	return nil
}
