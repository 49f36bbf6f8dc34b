// Package vclock is the fixture's one clock: Compute runs a kernel off the
// executor token, and a parker is a participant's record.
package vclock

import "context"

// Clock is the modeled clock.
type Clock interface {
	Now() int64
	Compute(ctx context.Context, fn func()) bool
}

// Virtual is the one Clock.
type Virtual struct{ now int64 }

// Now is the modeled instant.
func (v *Virtual) Now() int64 { return v.now }

// Compute runs fn as a parallel compute phase.
func (v *Virtual) Compute(ctx context.Context, fn func()) bool {
	fn()
	return ctx.Err() == nil
}

// parker is a participant's record: a park is one receive on its grant.
type parker struct{ g, done chan struct{} }

func (r *parker) await() { <-r.g }
