package streaming

import (
	"context"
	"sync/atomic"
	"time"

	"gopilot/internal/vclock"
)

// partition is one shard's copy of one partition's log plus what hosting
// it needs: the modeled append capacity and the two lists of parked
// callers. It has no lock of its own — Cluster.mu guards every copy, so a
// copy is resolved and used in one critical section. A copy lives at
// fedPart.logs[shard] exactly while that shard is a member of the partition
// (full or syncing); the control plane makes it at placement or recruitment
// and closes it when the shard dies or the cluster closes.
type partition struct {
	Log
	nextFree time.Time // modeled time the partition finishes current appends

	waiters []waitReg // consumers and catch-up runners parked until data arrives
	space   []waitReg // producers parked until in-flight bytes drop
	// closed: the hosting shard died or the cluster closed. Whoever held the
	// copy across a park or a modeled sleep sees the flag and re-resolves.
	closed bool
}

// close marks the copy dead and wakes everything parked on it — blocked
// fetchers and runners first, then backpressured producers — which
// re-resolve through the new placement (or fail with ErrBrokerClosed when
// it is the cluster that closed). Caller holds c.mu.
func (p *partition) close() {
	p.closed = true
	fireList(&p.waiters)
	fireList(&p.space)
}

// park registers w — armed by the caller, under c.mu — on every list,
// releases c.mu and waits. True when a fire woke it; false when ctx was done
// first, with w fired so registerEvent recognizes its entries as dead —
// without that, repeatedly canceled publishes against a full partition would
// grow its space list without bound until the next Commit. Either way the
// caller re-locks and re-resolves: nothing read before a park is still known.
func (c *Cluster) park(ctx context.Context, w *waiter, lists ...*[]waitReg) bool {
	for _, l := range lists {
		registerEvent(l, w)
	}
	c.mu.Unlock()
	if !w.Wait(ctx) {
		w.Fire()
		return false
	}
	return true
}

// waiter is a re-armable wait object: one vclock.Event that its owner — a
// replicate runner, a publish call, a FetchOrWait call — parks on again and
// again instead of minting an event per park; gen numbers its armings.
type waiter struct {
	*vclock.Event
	gen atomic.Uint64
}

// waitSlot holds a caller's waiter, made at its first park so that a call
// which never parks allocates nothing.
type waitSlot struct{ w *waiter }

// arm readies the slot's waiter for one more park — a new arming, unfired.
// Owner-only, between parks.
func (s *waitSlot) arm(clock vclock.Clock) *waiter {
	if s.w == nil {
		s.w = &waiter{Event: vclock.NewEvent(clock)}
	} else {
		s.w.gen.Add(1)
		s.w.Reset()
	}
	return s.w
}

// waitReg is one registration of a waiter on a waiter list, stamped with
// the arming it was made under. A park may register on several lists and
// is woken by one; its registrations on the others must die with it, or
// re-arming would revive them and their list's next fire would wake a
// later, unrelated park — an extra grant, a different schedule. So: dead
// iff the stamp is not the waiter's current arming or that arming has fired.
type waitReg struct {
	w   *waiter
	gen uint64
}

func (r waitReg) current() bool { return r.w.gen.Load() == r.gen }
func (r waitReg) live() bool    { return r.current() && !r.w.Fired() }

// registerEvent parks w's current arming on a waiter list (a partition's
// data or backpressure-space waiters, its ackWait, the cluster's control
// list), pruning dead registrations. Every exit path of a parked call fires
// its waiter — the abandoning ones too (context canceled, broker closed,
// poll satisfied by another partition) — and its next park re-arms it, so
// stale registrations are recognizably dead and swept here; otherwise skewed
// traffic or repeatedly canceled publishes would grow a list by one entry per
// wake-up until a fire cleared it. Caller holds c.mu.
func registerEvent(list *[]waitReg, w *waiter) {
	live := (*list)[:0]
	for _, old := range *list {
		if old.live() {
			live = append(live, old)
		}
	}
	*list = append(live, waitReg{w, w.gen.Load()})
}

// fireList fires every live registration in order and empties the list,
// keeping its array. Caller holds c.mu: the lock order is c.mu → Event.mu →
// Virtual.mu, with no reverse edge — Fire never calls back into streaming.
func fireList(list *[]waitReg) {
	for _, r := range *list {
		if r.current() {
			r.w.Fire()
		}
	}
	clear(*list)
	*list = (*list)[:0]
}
