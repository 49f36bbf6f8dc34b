// Package plan is gopilot's control plane: one deep module that answers
// "what should be dispatched at this virtual instant?". The TickPlanner
// owns everything the answer depends on — the pending-unit queue, the
// per-backend dispatch watermarks, the placement policy (first-fit by
// default, with the manager's pluggable Scheduler wired in as a
// PolicyFunc), the overlap/guard checks that keep a unit from being
// dispatched twice, and the retry state (shared budget plus exponential
// backoff with deterministic jitter). The Reconciler in this package is
// the matching desired-vs-actual drift detector. core.Manager shrinks to
// the thin shell the P* model describes: it feeds the planner world
// snapshots and executes the decisions it gets back.
//
// The package is deliberately pure with respect to time and concurrency:
// it never reads a clock, never sleeps, and spawns no goroutines — every
// entry point takes the current virtual instant as an argument and is
// called under the manager's lock. That purity is what keeps same-seed
// runs bit-identical (and is enforced by seed-audit rule 6).
//
// A planning tick is indexed, not a rescan: the pending queue is an
// intrusive list of unit records in arrival (re-)order, and Plan keeps a
// per-tick capacity floor — the smallest core count the executor refused
// this tick — so a unit needing at least that much is kept without asking
// again, and the walk stops once every unit behind it is such a unit and
// none is parked in backoff. That rests on the monotonicity contract
// stated on Executor.Candidates; under it the index changes what a tick
// costs (units bound + distinct core sizes queued, not queue depth ×
// pilots), never what it decides.
package plan

import (
	"math"
	"time"

	"gopilot/internal/dist"
)

// UnitSpec is the planner's view of a compute unit: just what placement
// and retry accounting need, so the package stays independent of core.
type UnitSpec struct {
	// ID is the manager-assigned unit id, unique over the planner's life.
	ID string
	// Ordinal is the unit's submission ordinal; it labels the unit's slot
	// in the planner's "retry" stream subtree ("retry"/<ordinal>).
	Ordinal uint64
	// Cores is the unit's core requirement.
	Cores int
	// MaxRetries bounds the unit's shared failure budget: a unit may be
	// re-dispatched at most MaxRetries times after its first dispatch,
	// counting both pre-start strandings and mid-execution pilot losses.
	MaxRetries int
}

// Candidate is a pilot able to host a unit at the planning instant.
type Candidate struct {
	// ID is the pilot id.
	ID string
	// Backend identifies the backend/site hosting the pilot, the key of
	// the planner's dispatch watermarks.
	Backend string
	// FreeCores is the pilot's unreserved capacity right now.
	FreeCores int
}

// PolicyFunc picks a pilot for a unit from a non-empty candidate list,
// returning its ID, or "" to defer the unit to a later tick. An ID that is
// not in the list is a deferral too: the planner never binds a unit to a
// pilot the executor did not offer.
type PolicyFunc func(u UnitSpec, candidates []Candidate) string

// Executor is the planner's hand back into the world. Plan calls it
// synchronously, one decision at a time, so each Bind is applied before
// the next unit's candidates are gathered — placement therefore sees the
// capacity consumed by earlier decisions of the same tick, exactly as
// the pre-planner dispatch loop did.
type Executor interface {
	// Candidates returns the pilots able to host u at this instant, in
	// stable (pilot submission) order, with current free capacity. The
	// answer is valid until the next Candidates call (implementations may
	// reuse its backing array).
	//
	// Monotonicity contract: a pilot is a candidate iff it is running,
	// reachable and has FreeCores >= u.Cores — no other property of the
	// unit may filter. An empty answer for c cores therefore implies an
	// empty answer for every c' >= c until capacity next rises, and within
	// one tick capacity only shrinks (the manager holds its lock, and Bind
	// only debits). Plan relies on this to skip such units without asking.
	// A tick runs without parking, so the executor's token keeps every
	// other participant — and with it every slot return — out of it; and
	// every capacity rise (returnSlots, pilotStarted, an outage clearing
	// via Kick) is followed by a wake, so a skipped unit is reconsidered
	// on the very next tick.
	Candidates(u UnitSpec) []Candidate
	// Bind reserves u onto the chosen pilot and hands it to the agent.
	Bind(u UnitSpec, pilotID string)
}

// FailureClass distinguishes how a dispatched unit came back.
type FailureClass int

// Failure classes. Both draw on the same MaxRetries budget; they are
// distinguished so reconciliation and stats can tell a pilot that died
// before pickup from one that died under a running unit.
const (
	// FailurePreStart: the pilot terminated before the agent picked the
	// unit up (stranded in the work queue).
	FailurePreStart FailureClass = iota
	// FailureExecution: the pilot was lost while the unit was staging or
	// executing.
	FailureExecution
)

// String implements fmt.Stringer.
func (c FailureClass) String() string {
	if c == FailurePreStart {
		return "pre-start"
	}
	return "execution"
}

// Verdict is the planner's ruling on a failed dispatch.
type Verdict struct {
	// Retry is true when budget remains and the unit was requeued.
	Retry bool
	// Charges is the total failures charged against the unit's budget so
	// far, including this one.
	Charges int
	// Delay is the backoff applied before the unit is eligible again
	// (zero when Retry is false).
	Delay time.Duration
	// RetryAt is the virtual instant the unit becomes dispatchable again.
	RetryAt time.Time
}

// Watermark tracks dispatch progress onto one backend.
type Watermark struct {
	// LastDispatch is the virtual instant of the most recent bind.
	LastDispatch time.Time
	// Dispatched counts binds onto the backend over the planner's life.
	Dispatched int
	// InFlight counts units currently bound and not yet returned.
	InFlight int
}

// Config configures a Planner.
type Config struct {
	// Stream is the planner's slot on the seeding spine; retry jitter for
	// unit <ordinal> is drawn from Stream.Named("retry")/<ordinal>, so a
	// retry never shifts any other component's draws. Defaults to
	// dist.Unseeded("plan").
	Stream *dist.Stream
	// Policy picks a pilot from the candidates; nil means first-fit
	// (first candidate wins, which with submission-order iteration is
	// FIFO with opportunistic backfill).
	Policy PolicyFunc
	// Backoff shapes the retry delay; zero fields take the defaults
	// documented on Backoff.
	Backoff Backoff
}

// unitRec is the planner's per-unit bookkeeping.
type unitRec struct {
	spec       UnitSpec
	retry      *dist.Stream // "retry"/<ordinal>: jitter draws, one per retry
	class      *sizeClass   // queue census entry for spec.Cores
	prev, next *unitRec     // pending-queue links while queued
	queued     bool         // linked into the pending queue
	bound      bool         // dispatched and not yet returned
	backend    string       // watermark key while bound
	charges    int          // failures charged against MaxRetries
	retryAt    time.Time    // eligibility gate while queued after a failure
}

// sizeClass is the pending queue's census of one core size.
type sizeClass struct {
	cores  int
	queued int // units of this size in the pending queue
	left   int // of those, not yet visited by the running tick
}

// Planner is the TickPlanner. It is not self-synchronizing: the owning
// manager serializes all calls (and the Executor callbacks they make)
// under its own lock, which is also what makes a planning tick atomic
// with respect to pilot arrivals and failures.
type Planner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	units      map[string]*unitRec
	head, tail *unitRec     // pending queue in arrival (re-)order
	pending    int          // queued units
	parked     int          // queued units carrying a retryAt
	sizes      []*sizeClass // one per core size ever queued
	watermarks map[string]*Watermark
	backends   []string // watermark keys in first-dispatch order
}

// New creates a Planner.
func New(cfg Config) *Planner {
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("plan")
	}
	if cfg.Policy == nil {
		cfg.Policy = func(u UnitSpec, cands []Candidate) string { return cands[0].ID }
	}
	return &Planner{
		policy:     cfg.Policy,
		backoff:    cfg.Backoff.withDefaults(),
		retryRoot:  cfg.Stream.Named("retry"),
		units:      make(map[string]*unitRec),
		watermarks: make(map[string]*Watermark),
	}
}

// Admit registers a new unit and appends it to the pending queue.
func (p *Planner) Admit(spec UnitSpec) {
	if _, ok := p.units[spec.ID]; ok {
		return
	}
	r := &unitRec{
		spec:  spec,
		retry: p.retryRoot.SplitLabel(spec.Ordinal),
		class: p.classOf(spec.Cores),
	}
	p.units[spec.ID] = r
	p.enqueue(r)
}

// classOf returns the census entry for a core size, creating it on first
// use. Entries are never dropped: a workload has a handful of sizes.
func (p *Planner) classOf(cores int) *sizeClass {
	for _, c := range p.sizes {
		if c.cores == cores {
			return c
		}
	}
	c := &sizeClass{cores: cores}
	p.sizes = append(p.sizes, c)
	return c
}

// enqueue links r at the tail of the pending queue.
func (p *Planner) enqueue(r *unitRec) {
	r.queued = true
	r.prev, r.next = p.tail, nil
	if p.tail != nil {
		p.tail.next = r
	} else {
		p.head = r
	}
	p.tail = r
	p.pending++
	r.class.queued++
	if !r.retryAt.IsZero() {
		p.parked++
	}
}

// dequeue unlinks r from the pending queue.
func (p *Planner) dequeue(r *unitRec) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		p.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		p.tail = r.prev
	}
	r.prev, r.next = nil, nil
	r.queued = false
	p.pending--
	r.class.queued--
	if !r.retryAt.IsZero() {
		p.parked--
	}
}

// Forget removes a unit from the planner (terminal or canceled).
func (p *Planner) Forget(id string) {
	r, ok := p.units[id]
	if !ok {
		return
	}
	if r.queued {
		p.dequeue(r)
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
	}
	delete(p.units, id)
}

// Plan runs one planning tick at the given virtual instant: pending
// units, in queue order, are gated on their retry eligibility, offered to
// the policy, and bound through the executor. Units that fit nowhere stay
// queued, so smaller later units may bind first (backfill inside the
// pilot pool). The returned instant is the earliest pending retry
// eligibility, or zero if nothing is waiting on time — the manager
// schedules its next self-wake from it. now must not decrease from one
// tick to the next.
//
// The walk asks the executor only about units below the tick's capacity
// floor and ends as soon as no unvisited unit is below it or carries a
// retryAt: everything behind that point would be kept unasked and cannot
// move nextWake.
func (p *Planner) Plan(now time.Time, ex Executor) (nextWake time.Time) {
	floor := math.MaxInt // smallest core count refused this tick
	small, parked := p.pending, p.parked
	for _, c := range p.sizes {
		c.left = c.queued
	}
	for r, next := p.head, (*unitRec)(nil); r != nil && (small > 0 || parked > 0); r = next {
		next = r.next
		r.class.left--
		if r.spec.Cores < floor {
			small--
		}
		if !r.retryAt.IsZero() {
			parked--
			if r.retryAt.After(now) {
				if nextWake.IsZero() || r.retryAt.Before(nextWake) {
					nextWake = r.retryAt
				}
				continue
			}
			// Eligible from here on (now never decreases): stop counting
			// it as a reason for later ticks to walk this far.
			r.retryAt = time.Time{}
			p.parked--
		}
		if r.spec.Cores >= floor {
			continue
		}
		cands := ex.Candidates(r.spec)
		if len(cands) == 0 {
			// Lower the floor; the unvisited units it now covers stop
			// counting as reasons to walk on.
			for _, c := range p.sizes {
				if c.cores >= r.spec.Cores && c.cores < floor {
					small -= c.left
				}
			}
			floor = r.spec.Cores
			continue
		}
		pilot := p.policy(r.spec, cands)
		backend, offered := "", false
		for _, c := range cands {
			if c.ID == pilot {
				backend, offered = c.Backend, true
				break
			}
		}
		if pilot == "" || !offered {
			continue // deferred by the policy
		}
		p.dequeue(r)
		r.bound = true
		r.backend = backend
		p.noteDispatch(backend, now)
		ex.Bind(r.spec, pilot)
	}
	return nextWake
}

// NoteFailure charges one failure of the given class against the unit's
// budget and rules on a retry. With budget left the unit re-enters the
// queue, eligible again after an exponential-backoff delay with
// deterministic jitter from its own retry stream; otherwise the planner
// forgets it and the caller finalizes it as failed.
func (p *Planner) NoteFailure(id string, class FailureClass, now time.Time) Verdict {
	r, ok := p.units[id]
	if !ok {
		return Verdict{}
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
		r.bound = false
		r.backend = ""
	}
	r.charges++
	if r.charges > r.spec.MaxRetries {
		p.Forget(id)
		return Verdict{Retry: false, Charges: r.charges}
	}
	d := p.backoff.Delay(r.charges-1, r.retry)
	if r.queued && r.retryAt.IsZero() {
		p.parked++ // failed while still queued: it keeps its place in line
	}
	r.retryAt = now.Add(d)
	if !r.queued {
		p.enqueue(r)
	}
	return Verdict{Retry: true, Charges: r.charges, Delay: d, RetryAt: r.retryAt}
}

// Charges returns the failures charged against a unit's budget so far.
func (p *Planner) Charges(id string) int {
	if r, ok := p.units[id]; ok {
		return r.charges
	}
	return 0
}

// PendingLen returns the number of units awaiting dispatch (including
// units parked in backoff).
func (p *Planner) PendingLen() int { return p.pending }

// DrainPending removes and returns every queued unit ID in queue order —
// the manager's shutdown path, which finalizes them as canceled.
func (p *Planner) DrainPending() []string {
	var out []string
	for p.head != nil {
		out = append(out, p.head.spec.ID)
		p.Forget(p.head.spec.ID)
	}
	return out
}

// Watermarks returns a copy of the per-backend dispatch watermarks, in
// first-dispatch order.
func (p *Planner) Watermarks() map[string]Watermark {
	out := make(map[string]Watermark, len(p.backends))
	for _, b := range p.backends {
		out[b] = *p.watermarks[b]
	}
	return out
}

func (p *Planner) noteDispatch(backend string, now time.Time) {
	w, ok := p.watermarks[backend]
	if !ok {
		w = &Watermark{}
		p.watermarks[backend] = w
		p.backends = append(p.backends, backend)
	}
	w.LastDispatch = now
	w.Dispatched++
	w.InFlight++
}
