package plan

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"gopilot/internal/dist"
)

// rescanPlanner is the full-rescan TickPlanner this package shipped before
// the pending queue was indexed, kept as the reference model: a queue of
// ordinals re-resolved through the unit map on every tick, every live
// entry offered to the executor, stale entries dropped lazily. It keeps
// records of its own type, so a change to the indexed Planner's records
// cannot reach it. The indexed Planner must make the same decisions from
// the same inputs; only the cost of a tick may differ.
type rescanPlanner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	units      map[uint64]*rescanRec
	queue      []uint64
	watermarks map[string]*Watermark
}

// rescanRec is the model's per-unit bookkeeping.
type rescanRec struct {
	spec          UnitSpec
	retry         *dist.Stream
	queued, bound bool
	backend       string
	charges       int
	retryAt       time.Time
}

func newRescanPlanner(cfg Config) *rescanPlanner {
	return &rescanPlanner{
		policy:     cfg.Policy,
		backoff:    cfg.Backoff.withDefaults(),
		retryRoot:  cfg.Stream.Named("retry"),
		units:      make(map[uint64]*rescanRec),
		watermarks: make(map[string]*Watermark),
	}
}

func (p *rescanPlanner) Admit(spec UnitSpec) {
	if _, ok := p.units[spec.Ordinal]; ok {
		return
	}
	p.units[spec.Ordinal] = &rescanRec{spec: spec, retry: p.retryRoot.SplitLabel(spec.Ordinal), queued: true}
	p.queue = append(p.queue, spec.Ordinal)
}

func (p *rescanPlanner) Forget(o uint64) {
	if r, ok := p.units[o]; ok {
		if r.bound {
			p.watermarks[r.backend].InFlight--
		}
		delete(p.units, o)
	}
}

func (p *rescanPlanner) Plan(now time.Time, ex Executor) (nextWake time.Time) {
	keep := p.queue[:0]
	for _, id := range p.queue {
		r, ok := p.units[id]
		if !ok || !r.queued || r.bound {
			continue // forgotten, or guard: already dispatched
		}
		if !r.retryAt.IsZero() && r.retryAt.After(now) {
			keep = append(keep, id)
			if nextWake.IsZero() || r.retryAt.Before(nextWake) {
				nextWake = r.retryAt
			}
			continue
		}
		cands := ex.Candidates(r.spec)
		if len(cands) == 0 {
			keep = append(keep, id)
			continue
		}
		pilot := p.policy(r.spec, cands)
		if pilot == "" {
			keep = append(keep, id)
			continue
		}
		backend := ""
		for _, c := range cands {
			if c.ID == pilot {
				backend = c.Backend
				break
			}
		}
		r.queued, r.bound, r.backend, r.retryAt = false, true, backend, time.Time{}
		w, ok := p.watermarks[backend]
		if !ok {
			w = &Watermark{}
			p.watermarks[backend] = w
		}
		w.LastDispatch = now
		w.Dispatched++
		w.InFlight++
		ex.Bind(r.spec, pilot)
	}
	p.queue = keep
	return nextWake
}

func (p *rescanPlanner) Fail(id uint64, class FailureClass, now time.Time) Verdict {
	r, ok := p.units[id]
	if !ok {
		return Verdict{}
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
		r.bound, r.backend = false, ""
	}
	r.charges++
	if r.charges > r.spec.MaxRetries {
		delete(p.units, id)
		return Verdict{Charges: r.charges}
	}
	d := p.backoff.Delay(r.charges-1, r.retry)
	r.retryAt = now.Add(d)
	if !r.queued {
		r.queued = true
		p.queue = append(p.queue, id)
	}
	return Verdict{Retry: true, Charges: r.charges, Delay: d, RetryAt: r.retryAt}
}

func (p *rescanPlanner) Charges(id uint64) int {
	if r, ok := p.units[id]; ok {
		return r.charges
	}
	return 0
}

func (p *rescanPlanner) PendingLen() int {
	n := 0
	for _, id := range p.queue {
		if r, ok := p.units[id]; ok && r.queued && !r.bound {
			n++
		}
	}
	return n
}

func (p *rescanPlanner) DrainPending() []UnitSpec {
	var out []UnitSpec
	for _, id := range p.queue {
		if r, ok := p.units[id]; ok && r.queued && !r.bound {
			delete(p.units, id)
			out = append(out, r.spec)
		}
	}
	p.queue = nil
	return out
}

func (p *rescanPlanner) Watermarks() map[string]Watermark {
	out := make(map[string]Watermark, len(p.watermarks))
	for b, w := range p.watermarks {
		out[b] = *w
	}
	return out
}

// tickPlanner is the surface the equivalence driver exercises on both.
type tickPlanner interface {
	Admit(UnitSpec)
	Forget(uint64)
	Plan(time.Time, Executor) time.Time
	Fail(uint64, FailureClass, time.Time) Verdict
	Charges(uint64) int
	PendingLen() int
	DrainPending() []UnitSpec
	Watermarks() map[string]Watermark
}

// planWorld is one planner with its own capacity-debiting executor.
type planWorld struct {
	p  tickPlanner
	ex *fakeExec
}

// drivePlanners decodes script two bytes at a time into Admit / Plan /
// Fail / Forget / DrainPending calls, pilot capacity changes and policy
// switches (the indexed Planner runs a Grow before some of its Admits, and
// takes some failures by ID through the NoteFailure forward), applies every
// step to the indexed Planner and to the rescan model — each over its own
// executor — and reports the first point at which anything observable
// differs. Units are named by ordinal from 1, as the manager names them.
func drivePlanners(script []byte) error {
	mode := byte(0) // policy: 0 first-fit, 1 last-fit, 2 defer every third ordinal
	policy := func(u UnitSpec, cands []Candidate) string {
		switch {
		case mode == 1:
			return cands[len(cands)-1].ID
		case mode == 2 && u.Ordinal%3 == 0:
			return ""
		}
		return cands[0].ID
	}
	pool := func() *fakeExec {
		return &fakeExec{pilots: []Candidate{
			{ID: "pA", Backend: "hpc://a", FreeCores: 4},
			{ID: "pB", Backend: "hpc://a", FreeCores: 2},
			{ID: "pC", Backend: "htc://b", FreeCores: 0},
		}}
	}
	cfg := func() Config {
		return Config{Stream: dist.NewStream(42), Policy: policy, Backoff: Backoff{Initial: 4 * time.Second, Max: 20 * time.Second}}
	}
	worlds := [2]planWorld{{New(cfg()), pool()}, {newRescanPlanner(cfg()), pool()}}
	same := func(step int, what string, a, b any) error {
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("step %d: %s: indexed %v, rescan %v", step, what, a, b)
		}
		return nil
	}

	now := t0
	var cores []int // by ordinal - 1
	nbinds := 0
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], script[step+1]
		pick := uint64(0) // never admitted
		if len(cores) > 0 {
			pick = 1 + uint64(int(arg)%len(cores))
		}
		id := fmt.Sprintf("u%d", pick)
		var got [2]any
		for i, w := range worlds {
			switch op % 8 {
			case 0, 1: // admit: mostly 1–4 cores, now and then one that fits nowhere
				if i == 0 {
					cores = append(cores, 1+int(arg%4))
					if arg%32 == 31 {
						cores[len(cores)-1] = 9
					}
				}
				o := uint64(len(cores))
				if p, ok := w.p.(*Planner); ok && arg&0x40 != 0 {
					p.Grow(int(arg >> 5)) // invisible: the rescan model has no Grow
				}
				w.p.Admit(UnitSpec{ID: fmt.Sprintf("u%d", o), Ordinal: o, Cores: cores[o-1], MaxRetries: int(arg>>2) % 3})
			case 2, 3: // tick, after 0–7 modeled seconds
				if i == 0 {
					now = now.Add(time.Duration(arg%8) * time.Second)
				}
				got[i] = w.p.Plan(now, w.ex)
			case 4: // a dispatched (or still queued, or unknown) unit fails
				w.ex.release(id, coresOf(cores, pick))
				if p, ok := w.p.(*Planner); ok && op&0x80 != 0 {
					got[i] = p.NoteFailure(id, FailureClass(arg%2), now) // the forward the frozen ladder calls
				} else {
					got[i] = w.p.Fail(pick, FailureClass(arg%2), now)
				}
			case 5: // a unit finishes or is canceled
				w.ex.release(id, coresOf(cores, pick))
				w.p.Forget(pick)
			case 6: // capacity rises between ticks (or the manager shuts down)
				if arg == 255 {
					got[i] = w.p.DrainPending()
				} else {
					w.ex.pilots[int(arg)%3].FreeCores += 1 + int(arg>>4)%4
				}
			case 7:
				mode = arg % 3
			}
		}
		if err := same(step, "result", got[0], got[1]); err != nil {
			return err
		}
		// Bind order: both lists were equal before this step, so comparing
		// what the step appended compares the lists.
		a, b := worlds[0].ex.binds, worlds[1].ex.binds
		if err := same(step, "binds", a[min(nbinds, len(a)):], b[min(nbinds, len(b)):]); err != nil {
			return err
		}
		nbinds = len(a)
		if err := same(step, "PendingLen", worlds[0].p.PendingLen(), worlds[1].p.PendingLen()); err != nil {
			return err
		}
		if err := same(step, "Watermarks", worlds[0].p.Watermarks(), worlds[1].p.Watermarks()); err != nil {
			return err
		}
		if err := checkCensus(worlds[0].p.(*Planner)); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		// Only the picked unit's charges can have moved this step.
		if err := same(step, "Charges "+id, worlds[0].p.Charges(pick), worlds[1].p.Charges(pick)); err != nil {
			return err
		}
	}
	for o := range uint64(len(cores)) + 1 {
		if err := same(len(script), fmt.Sprint("Charges ", o), worlds[0].p.Charges(o), worlds[1].p.Charges(o)); err != nil {
			return err
		}
	}
	return nil
}

// coresOf returns the core count of the unit with ordinal o, 0 for none.
func coresOf(cores []int, o uint64) int {
	if o == 0 {
		return 0
	}
	return cores[o-1]
}

// checkCensus walks every list of the pending queue and compares it with
// what Plan's cursors trust: each list's links are sound and in ascending
// queue position, no position repeats, every size FIFO holds queued records
// of its size and between them exactly PendingLen of them, and the parked
// list holds exactly the queued records that carry a retryAt. A record
// missing from a list would be skipped by every tick — a bind the rescan
// comparison sees only if capacity happens to be there — and a record left
// on one after it was dequeued would be bound twice.
func checkCensus(p *Planner) error {
	walk := func(l *fifo, what string, each func(r *unitRec) error) error {
		var prev *unitRec
		for r := l.head; r != nil; prev, r = r, r.links[l.k].next {
			if r.links[l.k].prev != prev || !r.queued || r.bound || p.rec(r.spec.Ordinal) != r {
				return fmt.Errorf("%s entry %s: broken link or state (queued %v, bound %v)", what, r.spec.ID, r.queued, r.bound)
			}
			if prev != nil && prev.pos >= r.pos {
				return fmt.Errorf("%s: %s at position %d follows %s at %d", what, r.spec.ID, r.pos, prev.spec.ID, prev.pos)
			}
			if err := each(r); err != nil {
				return err
			}
		}
		if l.tail != prev {
			return fmt.Errorf("%s: tail is not its last entry", what)
		}
		return nil
	}
	pending, gated := 0, 0
	seen := map[uint64]bool{}
	for _, c := range p.sizes {
		err := walk(&c.fifo, fmt.Sprintf("%d-core FIFO", c.cores), func(r *unitRec) error {
			if r.spec.Cores != c.cores || r.class != c || seen[r.pos] {
				return fmt.Errorf("%d-core FIFO holds %s (%d cores, position %d)", c.cores, r.spec.ID, r.spec.Cores, r.pos)
			}
			seen[r.pos] = true
			pending++
			if !r.retryAt.IsZero() {
				gated++
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	parked := 0
	err := walk(&p.parked, "parked list", func(r *unitRec) error {
		if r.retryAt.IsZero() {
			return fmt.Errorf("parked list holds %s, which carries no retryAt", r.spec.ID)
		}
		parked++
		return nil
	})
	if err != nil {
		return err
	}
	if pending != p.pending || parked != gated {
		return fmt.Errorf("census: pending %d, FIFOs hold %d; %d of them gated, parked list holds %d", p.pending, pending, gated, parked)
	}
	return nil
}

// planScript draws a script of n steps from a seed.
func planScript(seed int64, n int) []byte {
	s := dist.NewStream(seed)
	out := make([]byte, 2*n)
	for i := range out {
		out[i] = byte(s.Intn(256))
	}
	return out
}

// Two queue shapes a uniform script all but never draws, and the ones the
// per-size cursors exist for. Both end in a uniform tail, so capacity keeps
// moving under them.

// starvedFrontScript opens with front units of the largest size — one binds,
// the rest fit nowhere — and only then admits the small ones, so every tick
// that binds anything has the whole front between it and the unit it binds.
func starvedFrontScript(seed int64, front int) []byte {
	var out []byte
	for i := 0; i < front; i++ {
		out = append(out, 0, 11) // admit: 4 cores, 2 retries
	}
	for i := 0; i < 12; i++ {
		out = append(out, 0, byte(8+i%3)) // admit: 1, 2, 3 cores
	}
	out = append(out, 2, 0) // tick
	return append(out, planScript(seed, 120)...)
}

// parkedBetweenHeadsScript parks a record of the refused size between the
// heads of two size FIFOs: u1 binds, fails and re-enters behind u2 and u3
// carrying a retryAt; u3 is refused, which puts u1 at the floor; the small
// units behind it must still see it gated, then un-gated, in queue order.
func parkedBetweenHeadsScript(seed int64) []byte {
	out := []byte{
		0, 11, // admit u1: 4 cores
		2, 0, // tick: u1 -> pA
		0, 11, 0, 11, // admit u2, u3: 4 cores
		4, 0, // u1 fails: pA's cores come back, u1 re-enters parked
		0, 8, 0, 9, // admit u4 (1 core), u5 (2 cores)
		2, 0, // tick: u2 -> pA, u3 refused, u1 gated, u4 -> pB, u5 refused
		2, 7, // tick 7 s on: u1 un-gated at the floor
		4, 3, // u4 fails and parks behind everything
		2, 0, 2, 7,
	}
	return append(out, planScript(seed, 120)...)
}

// TestPlanMatchesRescan is the equivalence property: over randomized
// operation sequences — mixed core sizes, backoff-gated units in mid-queue,
// policy deferrals, failures of queued units, capacity rising between
// ticks, small units starved behind a front of large ones, a parked record
// at the floor between two FIFO heads — the indexed planner and the
// full-rescan model agree on bind order, nextWake, verdicts, PendingLen,
// Charges and Watermarks after every step.
func TestPlanMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for name, script := range map[string][]byte{
			"uniform":              planScript(seed, 400),
			"starved front":        starvedFrontScript(seed, 1+int(seed)%60),
			"parked between heads": parkedBetweenHeadsScript(seed),
		} {
			if err := drivePlanners(script); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
		}
	}
}

// FuzzPlanMatchesRescan exposes the same driver to the native fuzzer; the
// committed corpus under testdata/fuzz holds scripts from the seeds above.
func FuzzPlanMatchesRescan(f *testing.F) {
	f.Add(planScript(7, 64))
	f.Add(bytes.Repeat([]byte{0, 3, 0, 2, 2, 1, 4, 0, 6, 17}, 12))
	f.Add(starvedFrontScript(3, 40))
	f.Add(parkedBetweenHeadsScript(5))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		if err := drivePlanners(script); err != nil {
			t.Fatal(err)
		}
	})
}

// countingExec fits nothing anywhere and counts how often it is asked.
type countingExec struct{ calls int }

func (e *countingExec) Candidates(UnitSpec) []Candidate { e.calls++; return nil }
func (e *countingExec) Bind(UnitSpec, string)           {}

// TestPlanTickCostIndependentOfDepth is the complexity property: over a
// backlog of 10⁴ units that fit nowhere — largest sizes at the front, so
// the floor comes down one size at a time across the whole queue — a tick
// asks the executor once per distinct core size, takes that many records
// off its cursors (not the 10⁴ between them) and allocates nothing. With
// units parked in mid-queue it takes those as well, gated or not, and
// nothing else.
func TestPlanTickCostIndependentOfDepth(t *testing.T) {
	p := newPlanner(Backoff{})
	const sizes, depth = 4, 10_000
	for i := 0; i < depth; i++ {
		p.Admit(UnitSpec{ID: fmt.Sprintf("u%d", i), Ordinal: uint64(i), Cores: sizes - i*sizes/depth, MaxRetries: 1})
	}
	ex := &countingExec{}
	tick := func(now time.Time, wantVisited int, what string) {
		t.Helper()
		calls, visited := ex.calls, p.visited
		p.Plan(now, ex)
		if got := ex.calls - calls; got != sizes {
			t.Fatalf("%s: one tick made %d Candidates calls, want %d (one per core size)", what, got, sizes)
		}
		if got := int(p.visited - visited); got != wantVisited {
			t.Fatalf("%s: one tick visited %d records, want %d", what, got, wantVisited)
		}
	}
	tick(t0, sizes, "full backlog")
	if allocs := testing.AllocsPerRun(100, func() { p.Plan(t0, ex) }); allocs != 0 {
		t.Fatalf("a tick over a full backlog allocates %.1f times, want 0", allocs)
	}

	// Park one record in the middle of each size's run, and two more of the
	// largest: none is the head of its FIFO.
	parked := []int{1250, 3750, 6250, 8750, 100, 2000}
	for _, i := range parked {
		if v := p.Fail(uint64(i), FailureExecution, t0); !v.Retry {
			t.Fatalf("u%d was not requeued", i)
		}
	}
	tick(t0, sizes+len(parked), "parked and gated")
	tick(t0.Add(time.Hour), sizes+len(parked), "parked, un-gated this tick")
	tick(t0.Add(time.Hour), sizes, "nothing parked any more")
	if n := p.PendingLen(); n != depth {
		t.Fatalf("PendingLen = %d, want %d", n, depth)
	}
}

// TestPlanVisitsWhatItActsOn drains a 4000-unit backlog of mixed 1–4-core
// units through 20 pilots of 32 cores, a few completions and now and then a
// failure between ticks, and holds every tick to the bound the index
// promises: records visited ≤ units bound + distinct sizes + records parked
// when the tick began. The queue's front fills up with the large units
// backfill passed over, which is where a walk of the queue itself spends
// its time.
func TestPlanVisitsWhatItActsOn(t *testing.T) {
	const units, sizes = 4000, 4
	p := newPlanner(Backoff{})
	s := dist.NewStream(11)
	cores := make([]int, units)
	for i := range cores {
		cores[i] = 1 + s.Intn(sizes)
		p.Admit(UnitSpec{ID: fmt.Sprint("u", i), Ordinal: uint64(i), Cores: cores[i], MaxRetries: 1 << 20})
	}
	ex := &fakeExec{pilots: make([]Candidate, 20)}
	for i := range ex.pilots {
		ex.pilots[i] = Candidate{ID: fmt.Sprint("p", i), Backend: "hpc://test", FreeCores: 32}
	}
	var running []string
	now, ticks, maxVisited := t0, 0, 0
	for p.PendingLen() > 0 || len(running) > 0 {
		parked := 0
		for r := p.parked.head; r != nil; r = r.links[byRetry].next {
			parked++
		}
		visited, bound := p.visited, len(ex.binds)
		p.Plan(now, ex)
		got, binds := int(p.visited-visited), ex.binds[bound:]
		if got > len(binds)+sizes+parked {
			t.Fatalf("tick %d (%d pending): visited %d records for %d binds, %d sizes, %d parked",
				ticks, p.PendingLen(), got, len(binds), sizes, parked)
		}
		maxVisited = max(maxVisited, got)
		for _, b := range binds {
			running = append(running, b[0])
		}
		ticks++
		now = now.Add(time.Second)
		// One to three running units come back; every seventh fails instead.
		for n := 1 + s.Intn(3); n > 0 && len(running) > 0; n-- {
			i := s.Intn(len(running))
			id := running[i]
			running[i] = running[len(running)-1]
			running = running[:len(running)-1]
			o, _ := strconv.Atoi(id[1:]) // "u<ordinal>"
			ex.release(id, cores[o])
			if s.Intn(7) == 0 {
				p.Fail(uint64(o), FailureExecution, now)
			} else {
				p.Forget(uint64(o))
			}
		}
	}
	t.Logf("%d ticks, at most %d records visited in one", ticks, maxVisited)
}
