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
// runs bit-identical (and is enforced by seed-audit rules 6 and 9).
//
// A planning tick is indexed, not a rescan. Every queued record carries a
// queue position, stamped when it (re-)enters the queue, and hangs on the
// FIFO of its core size; a record gated by a retryAt hangs on the parked
// list as well. Plan keeps a per-tick capacity floor — the smallest core
// count the executor refused this tick — and a cursor per list, and its
// next record is the smallest position under the parked cursor and the
// cursors of the sizes still below the floor. Those are exactly the records
// a walk of the whole queue would act on (ask about, bind, gate or
// un-gate), in the same order; a record at or above the floor that is not
// parked would be kept unasked, so it is never touched. That rests on the
// monotonicity contract stated on Executor.Candidates; under it a tick
// visits the units it binds plus one refusal per distinct core size plus
// the parked records — whatever the depth, and wherever in the queue the
// small units sit — and the index changes what a tick costs, never what it
// decides.
package plan

import (
	"math"
	"slices"
	"time"

	"gopilot/internal/dist"
)

// UnitSpec is the planner's view of a compute unit: just what placement
// and retry accounting need, so the package stays independent of core.
type UnitSpec struct {
	// ID is the unit's id, unique over the planner's life; only NoteFailure reads it.
	ID string
	// Ordinal is the unit's submission ordinal: the key of its planner
	// record and of its slot in the "retry" stream subtree ("retry"/
	// <ordinal>). The manager numbers its units from 1 without gaps and
	// finds the unit behind a spec by it.
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
	// on the very next tick. An implementation may therefore serve a whole
	// tick from one snapshot of capacity taken before Plan is called and
	// debited by its own Bind — the manager's does; nothing else can move
	// what a snapshot holds while the tick runs.
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
	spec    UnitSpec
	retry   dist.Stream // "retry"/<ordinal>: jitter draws, one per retry; derived at the first failure
	class   *sizeClass  // FIFO of spec.Cores
	pos     uint64      // queue position while queued: orders records across lists
	links   [2]link     // bySize and byRetry list links while queued
	queued  bool        // in the pending queue
	bound   bool        // dispatched and not yet returned
	wm      *Watermark  // the bound backend's watermark while bound
	charges int         // failures charged against MaxRetries
	retryAt time.Time   // eligibility gate while queued after a failure
}

// The two lists a queued record can hang on, as indexes into unitRec.links:
// its size class's FIFO (always) and the planner's parked list (while it
// carries a retryAt).
const (
	bySize = iota
	byRetry
)

// link is one list's pair of neighbours.
type link struct{ prev, next *unitRec }

// fifo is an intrusive list of queued records in ascending queue position,
// threaded through their links[k]. cur is the running tick's cursor: the
// first record of the list the tick has not visited.
type fifo struct {
	k               int
	head, tail, cur *unitRec
}

// insert links r where its position belongs. A record entering the queue
// holds the largest position there is, so this is an append; only a record
// that fails while it is still queued joins the parked list in mid-order.
func (l *fifo) insert(r *unitRec) {
	k, after := l.k, l.tail
	for after != nil && after.pos > r.pos {
		after = after.links[k].prev
	}
	before := l.head
	if after != nil {
		before = after.links[k].next
		after.links[k].next = r
	} else {
		l.head = r
	}
	if before != nil {
		before.links[k].prev = r
	} else {
		l.tail = r
	}
	r.links[k] = link{prev: after, next: before}
}

// remove unlinks r from the list.
func (l *fifo) remove(r *unitRec) {
	k := l.k
	prev, next := r.links[k].prev, r.links[k].next
	if prev != nil {
		prev.links[k].next = next
	} else {
		l.head = next
	}
	if next != nil {
		next.links[k].prev = prev
	} else {
		l.tail = prev
	}
	r.links[k] = link{}
}

// sizeClass is the pending queue's FIFO of one core size.
type sizeClass struct {
	cores int
	fifo
}

// Planner is the TickPlanner. It is not self-synchronizing: the owning
// manager serializes all calls (and the Executor callbacks they make)
// under its own lock, which is also what makes a planning tick atomic
// with respect to pilot arrivals and failures.
type Planner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	recs       []*unitRec   // by UnitSpec.Ordinal; nil: never admitted, or forgotten
	spare      []unitRec    // records carved by Grow, taken by Admit before it allocates
	sizes      []*sizeClass // the pending queue: one FIFO per core size ever queued
	parked     fifo         // queued records carrying a retryAt
	pending    int          // queued units
	lastPos    uint64       // the newest queue position handed out
	visited    uint64       // records Plan has taken off a cursor, over the planner's life
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
		parked:     fifo{k: byRetry},
		watermarks: make(map[string]*Watermark),
	}
}

// Grow makes room for n more admissions: n records are carved from one
// slice and the record index reserves n+1 more slots (ordinals may start
// at 0 or 1), so the batch's Admits neither allocate a record of their own
// nor grow the index.
func (p *Planner) Grow(n int) {
	if n <= 0 {
		return
	}
	p.recs = slices.Grow(p.recs, n+1)
	if len(p.spare) < n {
		p.spare = make([]unitRec, n)
	}
}

// Admit registers a new unit and appends it to the pending queue. A unit
// whose ordinal is already admitted is ignored.
func (p *Planner) Admit(spec UnitSpec) {
	o := spec.Ordinal
	if p.rec(o) != nil {
		return
	}
	if o >= uint64(len(p.recs)) {
		p.recs = slices.Grow(p.recs, int(o)+1-len(p.recs))[:o+1]
	}
	var r *unitRec
	if len(p.spare) > 0 {
		r, p.spare = &p.spare[0], p.spare[1:]
	} else {
		r = new(unitRec)
	}
	r.spec, r.class = spec, p.classOf(spec.Cores) // r is zero: no literal copied over it
	p.recs[o] = r
	p.enqueue(r)
}

// rec returns the record of the unit with the given ordinal, or nil.
func (p *Planner) rec(ordinal uint64) *unitRec {
	if ordinal < uint64(len(p.recs)) {
		return p.recs[ordinal]
	}
	return nil
}

// classOf returns the FIFO for a core size, creating it on first use.
// Entries are never dropped: a workload has a handful of sizes.
func (p *Planner) classOf(cores int) *sizeClass {
	for _, c := range p.sizes {
		if c.cores == cores {
			return c
		}
	}
	c := &sizeClass{cores: cores, fifo: fifo{k: bySize}}
	p.sizes = append(p.sizes, c)
	return c
}

// enqueue puts r at the tail of the pending queue.
func (p *Planner) enqueue(r *unitRec) {
	p.lastPos++
	r.pos = p.lastPos
	r.queued = true
	p.pending++
	r.class.insert(r)
	if !r.retryAt.IsZero() {
		p.parked.insert(r)
	}
}

// dequeue takes r out of the pending queue.
func (p *Planner) dequeue(r *unitRec) {
	r.class.remove(r)
	if !r.retryAt.IsZero() {
		p.parked.remove(r)
	}
	r.queued = false
	p.pending--
}

// rewind puts every cursor back at the front of its list.
func (p *Planner) rewind() {
	p.parked.cur = p.parked.head
	for _, c := range p.sizes {
		c.cur = c.head
	}
}

// next takes the unvisited record with the smallest queue position off the
// parked cursor and the cursors of the sizes below floor, or returns nil
// when they have all run out. A parked record of such a size is under both
// cursors at once — each list is in position order — and both move past it.
func (p *Planner) next(floor int) *unitRec {
	r := p.parked.cur
	for _, c := range p.sizes {
		if c.cores < floor && c.cur != nil && (r == nil || c.cur.pos < r.pos) {
			r = c.cur
		}
	}
	if r == nil {
		return nil
	}
	if r == p.parked.cur {
		p.parked.cur = r.links[byRetry].next
	}
	if r == r.class.cur {
		r.class.cur = r.links[bySize].next
	}
	return r
}

// Forget removes a unit from the planner (terminal or canceled).
func (p *Planner) Forget(ordinal uint64) {
	r := p.rec(ordinal)
	if r == nil {
		return
	}
	if r.queued {
		p.dequeue(r)
	}
	if r.bound {
		r.wm.InFlight--
	}
	p.recs[ordinal] = nil
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
// The tick visits, in queue order, the records that are parked or below
// its capacity floor, and no others: a record at or above the floor that
// carries no retryAt would be kept unasked and cannot move nextWake.
func (p *Planner) Plan(now time.Time, ex Executor) (nextWake time.Time) {
	floor := math.MaxInt // smallest core count refused this tick
	p.rewind()
	for r := p.next(floor); r != nil; r = p.next(floor) {
		p.visited++
		if !r.retryAt.IsZero() {
			if r.retryAt.After(now) {
				if nextWake.IsZero() || r.retryAt.Before(nextWake) {
					nextWake = r.retryAt
				}
				continue
			}
			// Eligible from here on (now never decreases): it stops being a
			// reason for later ticks to visit it.
			p.parked.remove(r)
			r.retryAt = time.Time{}
		}
		if r.spec.Cores >= floor {
			continue
		}
		cands := ex.Candidates(r.spec)
		if len(cands) == 0 {
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
		r.wm = p.noteDispatch(backend, now)
		ex.Bind(r.spec, pilot)
	}
	return nextWake
}

// NoteFailure is Fail for the unit whose ID is id, found by a walk of the
// records. Only frozen cmd/bench calls it: delete with ROADMAP item 1.
func (p *Planner) NoteFailure(id string, class FailureClass, now time.Time) Verdict {
	for o, r := range p.recs {
		if r != nil && r.spec.ID == id {
			return p.Fail(uint64(o), class, now)
		}
	}
	return Verdict{}
}

// Fail charges one failure of the given class against the unit's budget
// and rules on a retry. With budget left the unit re-enters the queue,
// eligible again after an exponential-backoff delay with deterministic
// jitter from its own retry stream; otherwise the planner forgets it and
// the caller finalizes it as failed.
func (p *Planner) Fail(ordinal uint64, class FailureClass, now time.Time) Verdict {
	r := p.rec(ordinal)
	if r == nil {
		return Verdict{}
	}
	if r.bound {
		r.wm.InFlight--
		r.bound = false
	}
	r.charges++
	if r.charges > r.spec.MaxRetries {
		p.Forget(ordinal)
		return Verdict{Retry: false, Charges: r.charges}
	}
	if r.charges == 1 {
		// SplitLabel does not depend on what the parent has handed out, so
		// deriving the stream now gives the one Admit would have.
		r.retry = *p.retryRoot.SplitLabel(r.spec.Ordinal)
	}
	d := p.backoff.Delay(r.charges-1, &r.retry)
	gated := !r.retryAt.IsZero()
	r.retryAt = now.Add(d)
	switch {
	case !r.queued:
		p.enqueue(r)
	case !gated:
		p.parked.insert(r) // failed while still queued: it keeps its place in line
	}
	return Verdict{Retry: true, Charges: r.charges, Delay: d, RetryAt: r.retryAt}
}

// Charges returns the failures charged against a unit's budget so far.
func (p *Planner) Charges(ordinal uint64) int {
	if r := p.rec(ordinal); r != nil {
		return r.charges
	}
	return 0
}

// PendingLen returns the number of units awaiting dispatch (including
// units parked in backoff).
func (p *Planner) PendingLen() int { return p.pending }

// DrainPending removes and returns every queued unit in queue order — the
// manager's shutdown path, which finalizes them as canceled.
func (p *Planner) DrainPending() []UnitSpec {
	var out []UnitSpec
	p.rewind()
	for r := p.next(math.MaxInt); r != nil; r = p.next(math.MaxInt) {
		out = append(out, r.spec)
		p.Forget(r.spec.Ordinal)
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

// noteDispatch records a bind and returns the backend's (never replaced) watermark.
func (p *Planner) noteDispatch(backend string, now time.Time) *Watermark {
	w, ok := p.watermarks[backend]
	if !ok {
		w = &Watermark{}
		p.watermarks[backend] = w
		p.backends = append(p.backends, backend)
	}
	w.LastDispatch = now
	w.Dispatched++
	w.InFlight++
	return w
}
