// Package plan is the fixture's planner: Replicas decides replication
// through its methods, and the planner indexes its records by ordinal.
package plan

// Replicas is a partition's replica set.
type Replicas struct {
	Members, Syncing      []int
	Epoch, Acked, AckedAt int64
}

// Ack advances the acknowledged watermark.
func (r *Replicas) Ack(to int64) { r.Acked = to }

type unitRec struct{ ordinal int }

var recs []unitRec
