package streaming

import "spine/internal/plan"

// A text match gets both lines wrong: it exempts l.Epoch by the variable's
// name and flags seg.Epoch, a log's own stamp.
func restamp(l *plan.Replicas, seg *replicaLog) {
	l.Epoch = 7
	seg.Epoch = 7
}
