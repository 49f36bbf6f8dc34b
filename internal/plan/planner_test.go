package plan

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gopilot/internal/dist"
)

var t0 = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)

// fakeExec is a scripted Executor: a fixed pilot pool whose capacity is
// debited by Bind, so planner ticks see their own earlier decisions the
// way the manager's live callbacks do.
type fakeExec struct {
	pilots []Candidate       // mutated in place: FreeCores tracks binds
	binds  [][2]string       // (unit, pilot) in bind order
	held   map[string]string // unit -> pilot currently holding its cores
}

func (e *fakeExec) Candidates(u UnitSpec) []Candidate {
	var out []Candidate
	for _, p := range e.pilots {
		if p.FreeCores >= u.Cores {
			out = append(out, p)
		}
	}
	return out
}

func (e *fakeExec) Bind(u UnitSpec, pilotID string) {
	for i := range e.pilots {
		if e.pilots[i].ID == pilotID {
			e.pilots[i].FreeCores -= u.Cores
		}
	}
	e.binds = append(e.binds, [2]string{u.ID, pilotID})
	if e.held == nil {
		e.held = make(map[string]string)
	}
	e.held[u.ID] = pilotID
}

// release returns a bound unit's cores to its pilot (the unit finished or
// failed); a no-op for a unit that holds none.
func (e *fakeExec) release(unit string, cores int) {
	for i := range e.pilots {
		if e.pilots[i].ID == e.held[unit] {
			e.pilots[i].FreeCores += cores
		}
	}
	delete(e.held, unit)
}

func newPlanner(b Backoff) *Planner {
	return New(Config{Stream: dist.NewStream(42), Backoff: b})
}

func TestPlanFirstFitSeesEarlierBindsOfSameTick(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 3})
	p.Admit(UnitSpec{ID: "u2", Ordinal: 2, Cores: 3})
	p.Admit(UnitSpec{ID: "u3", Ordinal: 3, Cores: 1})
	ex := &fakeExec{pilots: []Candidate{{ID: "pA", Backend: "local://a", FreeCores: 4}}}

	if next := p.Plan(t0, ex); !next.IsZero() {
		t.Fatalf("nextWake = %v, want zero (nothing in backoff)", next)
	}
	// u1 takes 3 of pA's 4 cores inside the tick; u2 no longer fits, but
	// the smaller u3 backfills.
	want := [][2]string{{"u1", "pA"}, {"u3", "pA"}}
	if len(ex.binds) != len(want) || ex.binds[0] != want[0] || ex.binds[1] != want[1] {
		t.Fatalf("binds = %v, want %v", ex.binds, want)
	}
	if n := p.PendingLen(); n != 1 {
		t.Fatalf("PendingLen = %d, want 1 (u2 deferred)", n)
	}
}

func TestPlanGuardsAgainstDoubleDispatch(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 1})
	ex := &fakeExec{pilots: []Candidate{{ID: "pA", Backend: "local://a", FreeCores: 8}}}
	p.Plan(t0, ex)
	p.Plan(t0.Add(time.Second), ex)
	if len(ex.binds) != 1 {
		t.Fatalf("bound unit was re-dispatched: binds = %v", ex.binds)
	}
}

func TestNoteFailureBudgetExactlyMaxRetriesPlusOne(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 1, MaxRetries: 2})
	now := t0
	for want := 1; want <= 2; want++ {
		v := p.NoteFailure("u1", FailureExecution, now)
		if !v.Retry || v.Charges != want {
			t.Fatalf("failure %d: verdict %+v, want retry with charges %d", want, v, want)
		}
		if v.Delay <= 0 || !v.RetryAt.Equal(now.Add(v.Delay)) {
			t.Fatalf("failure %d: delay %v retryAt %v inconsistent", want, v.Delay, v.RetryAt)
		}
		now = v.RetryAt
	}
	v := p.NoteFailure("u1", FailurePreStart, now)
	if v.Retry || v.Charges != 3 {
		t.Fatalf("third failure: verdict %+v, want terminal with charges 3", v)
	}
	if c := p.Charges(1); c != 0 {
		t.Fatalf("unit not forgotten after exhausted budget: charges %d", c)
	}
}

func TestNoteFailurePreStartChargesBudget(t *testing.T) {
	// A pilot that dies before pickup consumes a retry exactly like a pilot
	// lost mid-execution: with MaxRetries=0 the first strand is terminal.
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 1, MaxRetries: 0})
	if v := p.Fail(1, FailurePreStart, t0); v.Retry || v.Charges != 1 {
		t.Fatalf("verdict %+v, want terminal with charges 1", v)
	}
}

func TestRetryGateHoldsUntilRetryAt(t *testing.T) {
	p := newPlanner(Backoff{Initial: 10 * time.Second, Jitter: -1}) // Jitter<0 -> disabled: exact delays
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 1, MaxRetries: 3})
	ex := &fakeExec{pilots: []Candidate{{ID: "pA", Backend: "local://a", FreeCores: 8}}}
	p.Plan(t0, ex)
	v := p.Fail(1, FailureExecution, t0)
	if !v.Retry {
		t.Fatal("expected retry")
	}
	ex.pilots[0].FreeCores = 8
	// One instant before eligibility: held, and the gate is reported back.
	if next := p.Plan(v.RetryAt.Add(-time.Nanosecond), ex); !next.Equal(v.RetryAt) {
		t.Fatalf("nextWake = %v, want %v", next, v.RetryAt)
	}
	if len(ex.binds) != 1 {
		t.Fatalf("unit dispatched before RetryAt: %v", ex.binds)
	}
	if next := p.Plan(v.RetryAt, ex); !next.IsZero() {
		t.Fatalf("nextWake after re-dispatch = %v, want zero", next)
	}
	if len(ex.binds) != 2 || ex.binds[1] != [2]string{"u1", "pA"} {
		t.Fatalf("unit not re-dispatched at RetryAt: %v", ex.binds)
	}
}

func TestBackoffDelaysGrowAndNeverZero(t *testing.T) {
	b := Backoff{Initial: 5 * time.Second, Max: time.Minute, Factor: 2}.withDefaults()
	s := dist.NewStream(7)
	for attempt := 0; attempt < 8; attempt++ {
		d := b.Delay(attempt, s)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v, want > 0", attempt, d)
		}
		base := 5 * time.Second << attempt
		if base > time.Minute {
			base = time.Minute
		}
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside jitter band [%v, %v]", attempt, d, lo, hi)
		}
	}
}

func TestBackoffJitterDeterministicPerStream(t *testing.T) {
	b := Backoff{}.withDefaults()
	a, c := dist.NewStream(99), dist.NewStream(99)
	for i := 0; i < 6; i++ {
		if da, dc := b.Delay(i, a), b.Delay(i, c); da != dc {
			t.Fatalf("attempt %d: same-seed streams disagree: %v vs %v", i, da, dc)
		}
	}
	d99, d100 := dist.NewStream(99), dist.NewStream(100)
	same := true
	for i := 0; i < 6; i++ {
		if b.Delay(i, d99) != b.Delay(i, d100) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestWatermarksTrackDispatchAndReturns(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 1, MaxRetries: 1})
	p.Admit(UnitSpec{ID: "u2", Ordinal: 2, Cores: 1})
	ex := &fakeExec{pilots: []Candidate{
		{ID: "pA", Backend: "local://a", FreeCores: 1},
		{ID: "pB", Backend: "htc://b", FreeCores: 1},
	}}
	p.Plan(t0, ex)
	w := p.Watermarks()
	if len(w) != 2 {
		t.Fatalf("watermarks = %v, want two backends", w)
	}
	if a := w["local://a"]; a.Dispatched != 1 || a.InFlight != 1 || !a.LastDispatch.Equal(t0) {
		t.Fatalf("local://a watermark %+v", a)
	}
	p.Fail(1, FailureExecution, t0.Add(time.Second))
	p.Forget(2)
	w = p.Watermarks()
	if w["local://a"].InFlight != 0 || w["htc://b"].InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", w)
	}
	if w["local://a"].Dispatched != 1 || w["htc://b"].Dispatched != 1 {
		t.Fatalf("dispatch counts changed on return: %+v", w)
	}
}

func TestDrainPendingReturnsQueueOrder(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 64})
	p.Admit(UnitSpec{ID: "u2", Ordinal: 2, Cores: 64})
	p.Admit(UnitSpec{ID: "u3", Ordinal: 3, Cores: 1})
	ex := &fakeExec{pilots: []Candidate{{ID: "pA", Backend: "local://a", FreeCores: 1}}}
	p.Plan(t0, ex) // binds u3 only
	got := p.DrainPending()
	if len(got) != 2 || got[0].ID != "u1" || got[1].ID != "u2" || got[1].Ordinal != 2 {
		t.Fatalf("DrainPending = %v, want u1 and u2 with their specs", got)
	}
	if p.PendingLen() != 0 {
		t.Fatalf("queue not empty after drain")
	}
}

// TestGrowAdmitsABatchWithoutAllocatingPerUnit: after Grow(n), n admissions
// take their records from one slab and land in an index made big enough
// for them, so the batch allocates a handful of times, not once or more per
// unit. (That Grow moves no decision is FuzzPlanMatchesRescan's business:
// drivePlanners grows the indexed planner before some admissions.)
func TestGrowAdmitsABatchWithoutAllocatingPerUnit(t *testing.T) {
	const n = 1000
	specs := make([]UnitSpec, n)
	for i := range specs {
		specs[i] = UnitSpec{ID: fmt.Sprint("u", i+1), Ordinal: uint64(i + 1), Cores: 1 + i%4}
	}
	admit := func(grow bool) float64 {
		return testing.AllocsPerRun(3, func() {
			p := newPlanner(Backoff{})
			if grow {
				p.Grow(n)
			}
			for _, s := range specs {
				p.Admit(s)
			}
		})
	}
	if grown, plain := admit(true), admit(false); grown > n/50 || plain < n {
		t.Fatalf("%d admissions allocate %.0f times after Grow and %.0f without, want at most %d and at least %d",
			n, grown, plain, n/50, n)
	}
}

func TestPolicyChoiceOutsideCandidatesIsDeferral(t *testing.T) {
	// pB is full, so only pA is offered. A policy that names pB anyway, or
	// a pilot nobody offered, must not get a bind: the unit stays queued,
	// nothing is debited, and a conforming answer on a later tick binds it.
	for _, rogue := range []string{"pB", "pZ"} {
		answer := rogue
		p := New(Config{Stream: dist.NewStream(42), Policy: func(UnitSpec, []Candidate) string { return answer }})
		p.Admit(UnitSpec{ID: "u1", Ordinal: 1, Cores: 2})
		ex := &fakeExec{pilots: []Candidate{
			{ID: "pA", Backend: "local://a", FreeCores: 4},
			{ID: "pB", Backend: "htc://b", FreeCores: 0},
		}}
		p.Plan(t0, ex)
		if len(ex.binds) != 0 || ex.pilots[1].FreeCores != 0 {
			t.Fatalf("policy answer %q outside the candidate set was bound: binds %v, pilots %+v", rogue, ex.binds, ex.pilots)
		}
		if n, w := p.PendingLen(), p.Watermarks(); n != 1 || len(w) != 0 {
			t.Fatalf("policy answer %q: PendingLen %d, watermarks %v; want the unit still queued and nothing dispatched", rogue, n, w)
		}
		answer = "pA"
		p.Plan(t0.Add(time.Second), ex)
		if len(ex.binds) != 1 || ex.binds[0] != [2]string{"u1", "pA"} || p.PendingLen() != 0 {
			t.Fatalf("deferred unit not bound by a conforming answer: binds %v", ex.binds)
		}
	}
}

// TestOrdinalsNameUnits: the planner's records are indexed by ordinal. An
// ordinal nobody admitted — a hole below the highest, one past the end of
// the index, one far beyond it — and an ordinal already forgotten are
// no-ops for Fail, Forget and Charges; re-admitting a live ordinal is
// ignored; and ordinal 0, where the frozen ladder starts, is a unit like
// any other.
func TestOrdinalsNameUnits(t *testing.T) {
	p := newPlanner(Backoff{})
	p.Admit(UnitSpec{ID: "u0", Ordinal: 0, Cores: 1, MaxRetries: 2})
	p.Admit(UnitSpec{ID: "u2", Ordinal: 2, Cores: 1, MaxRetries: 2})
	p.Admit(UnitSpec{ID: "again", Ordinal: 2, Cores: 4})
	if n := p.PendingLen(); n != 2 {
		t.Fatalf("PendingLen = %d after re-admitting ordinal 2, want 2", n)
	}
	ex := &fakeExec{pilots: []Candidate{{ID: "pA", Backend: "local://a", FreeCores: 2}}}
	p.Plan(t0, ex)
	if want := [][2]string{{"u0", "pA"}, {"u2", "pA"}}; !reflect.DeepEqual(ex.binds, want) {
		t.Fatalf("binds = %v, want %v (the re-admission must not replace u2's spec)", ex.binds, want)
	}
	untouched := func(what string, inFlight int) {
		t.Helper()
		if w := p.Watermarks()["local://a"]; w.InFlight != inFlight || w.Dispatched != 2 {
			t.Fatalf("%s: watermark %+v, want %d in flight of 2 dispatched", what, w, inFlight)
		}
		if err := checkCensus(p); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	noop := func(what string, o uint64, inFlight int) {
		t.Helper()
		if v := p.Fail(o, FailureExecution, t0); v != (Verdict{}) {
			t.Fatalf("%s ordinal %d: Fail ruled %+v, want the zero verdict", what, o, v)
		}
		p.Forget(o)
		if c := p.Charges(o); c != 0 {
			t.Fatalf("%s ordinal %d: Charges = %d, want 0", what, o, c)
		}
		untouched(fmt.Sprint(what, " ordinal ", o), inFlight)
	}
	for _, o := range []uint64{1, 3, 1 << 40} {
		noop("never admitted", o, 2)
	}
	if v := p.Fail(0, FailureExecution, t0); !v.Retry || v.Charges != 1 || p.Charges(0) != 1 {
		t.Fatalf("ordinal 0: Fail ruled %+v, Charges %d; want a retry and one charge", v, p.Charges(0))
	}
	p.Forget(0) // queued again, in backoff
	p.Forget(2) // bound
	if n := p.PendingLen(); n != 0 {
		t.Fatalf("PendingLen = %d after forgetting both, want 0", n)
	}
	for _, o := range []uint64{0, 2} {
		noop("forgotten", o, 0)
	}
}
