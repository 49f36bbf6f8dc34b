package streaming

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
)

// partition is one shard's copy of one partition's log plus what hosting
// it needs: the lock that guards both, the modeled append capacity and the
// two lists of parked callers. A copy lives at fedPart.logs[shard] exactly
// while that shard is a member of the partition (full or syncing); the
// control plane makes it at placement or recruitment and closes it when
// the shard dies or the cluster closes.
type partition struct {
	mu sync.Mutex
	Log
	nextFree time.Time // modeled time the partition finishes current appends

	waiters []waitReg // consumers and catch-up runners parked until data arrives
	space   []waitReg // producers parked until in-flight bytes drop
	// closed: the hosting shard died or the cluster closed; nothing fires
	// these lists again. Set by close in the same step that sweeps them, so
	// whoever registers under mu either sees the flag or is seen by the sweep.
	closed bool
}

// wakeFetchers fires the parked data waiters: consumers are gated by the
// acknowledged watermark rather than the log end, so the cluster wakes
// them when the watermark advances.
func (p *partition) wakeFetchers() {
	p.mu.Lock()
	fireList(&p.waiters)
	p.mu.Unlock()
}

// endOffset reads the next offset to be written.
func (p *partition) endOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.end
}

// snapshot is Log.Snapshot under the partition lock.
func (p *partition) snapshot(buf []plan.EpochSpan) (first, end, committed int64, epochs []plan.EpochSpan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Snapshot(buf)
}

// close marks the copy dead and wakes everything parked on it — blocked
// fetchers and runners first, then backpressured producers — which see the
// flag and re-route through the new placement (or fail with ErrBrokerClosed
// when it is the cluster that closed).
func (p *partition) close() {
	p.mu.Lock()
	p.closed = true
	fireList(&p.waiters)
	fireList(&p.space)
	p.mu.Unlock()
}

// appendBatch is the per-partition body of every publish: backpressure
// park, modeled append cost, the appends, consumer wake. part is the
// leader's copy; idxs are the batch indices destined for this partition;
// kv resolves index→(key, value); add is their payload byte total; when
// out is non-nil it has len(idxs) slots and receives the appended
// messages. Returns the appended offset range [start, end) and the modeled
// finish time (the caller sleeps once, to the slowest partition, after all
// sub-batches land), or ErrBrokerClosed when the copy died under the call.
func (c *Cluster) appendBatch(ctx context.Context, ws *waitSlot, part *partition, topicName string, pi int, idxs []int32, kv func(int) ([]byte, []byte), add int64, out []Message) (start, end int64, finish time.Time, err error) {
	// Backpressure: park (in modeled time) until the partition has room.
	// An idle partition always admits at least one batch, so a batch
	// larger than the whole bound cannot deadlock.
	part.mu.Lock()
	for {
		if part.closed {
			part.mu.Unlock()
			return 0, 0, time.Time{}, ErrBrokerClosed
		}
		if limit := c.cfg.MaxInflightBytes; limit <= 0 || part.Inflight() <= 0 || part.Inflight()+add <= limit {
			break
		}
		w := ws.arm(c.clock)
		registerEvent(&part.space, w)
		part.mu.Unlock()
		// Fire on the abandoning exit so registerEvent recognizes the entry
		// as dead — without that, repeatedly canceled publishes against a
		// full partition would grow part.space without bound until the next
		// Commit.
		if !w.Wait(ctx) {
			w.Fire()
			return 0, 0, time.Time{}, ctx.Err()
		}
		part.mu.Lock()
	}
	// Read the clock after any backpressure wait: Published stamps the
	// instant the broker accepted the message.
	now := c.clock.Now()
	st := part.nextFree
	if st.Before(now) {
		st = now
	}
	finish = st.Add(time.Duration(len(idxs)) * c.cfg.AppendCost)
	part.nextFree = finish
	start = part.end
	for k, i := range idxs {
		key, value := kv(int(i))
		m := part.Append(topicName, pi, key, value, now)
		if out != nil {
			out[k] = *m
		}
	}
	end = part.end
	fireList(&part.waiters)
	part.mu.Unlock()
	return start, end, finish, nil
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
// wake-up until a fire cleared it. Caller holds the lock guarding the list.
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
// keeping its array. Caller holds the lock guarding the list: the lock
// order is c.mu → partition.mu → Event.mu → Virtual.mu, with no reverse
// edge — nothing under a partition lock takes the cluster's, and Fire never
// calls back into streaming.
func fireList(list *[]waitReg) {
	for _, r := range *list {
		if r.current() {
			r.w.Fire()
		}
	}
	clear(*list)
	*list = (*list)[:0]
}
