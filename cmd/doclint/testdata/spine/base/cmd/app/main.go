// Command app is the fixture's traffic: it wires the cluster's hooks, runs
// an exhibit and a map task, and finds a unit by its ordinal.
package main

import (
	"context"

	"spine/internal/core"
	"spine/internal/experiments"
	"spine/internal/mapreduce"
	"spine/internal/streaming"
	"spine/internal/vclock"
)

func onCommit(topic string, partition int, from, through int64) {}

func main() {
	c := streaming.NewCluster(streaming.ClusterConfig{OnCommit: onCommit, OnAcked: onCommit})
	_ = c.Publish("t")
	e := experiments.Exhibits[0]
	_ = e.Run(e.Seed)
	_ = mapreduce.RunMapTask(context.Background(), &vclock.Virtual{}, []string{"a"})
	_ = new(core.Manager).Unit(1)
}
