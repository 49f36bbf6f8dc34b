package plan

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gopilot/internal/dist"
)

// rescanPlanner is the full-rescan TickPlanner this package shipped before
// the pending queue was indexed, kept verbatim as the reference model: a
// queue of IDs re-resolved through the unit map on every tick, every live
// entry offered to the executor, stale entries dropped lazily. The indexed
// Planner must make the same decisions from the same inputs; only the cost
// of a tick may differ.
type rescanPlanner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	units      map[string]*unitRec
	queue      []string
	watermarks map[string]*Watermark
}

func newRescanPlanner(cfg Config) *rescanPlanner {
	return &rescanPlanner{
		policy:     cfg.Policy,
		backoff:    cfg.Backoff.withDefaults(),
		retryRoot:  cfg.Stream.Named("retry"),
		units:      make(map[string]*unitRec),
		watermarks: make(map[string]*Watermark),
	}
}

func (p *rescanPlanner) Admit(spec UnitSpec) {
	if _, ok := p.units[spec.ID]; ok {
		return
	}
	p.units[spec.ID] = &unitRec{spec: spec, retry: p.retryRoot.SplitLabel(spec.Ordinal), queued: true}
	p.queue = append(p.queue, spec.ID)
}

func (p *rescanPlanner) Forget(id string) {
	if r, ok := p.units[id]; ok {
		if r.bound {
			p.watermarks[r.backend].InFlight--
		}
		delete(p.units, id)
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

func (p *rescanPlanner) NoteFailure(id string, class FailureClass, now time.Time) Verdict {
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

func (p *rescanPlanner) Charges(id string) int {
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

func (p *rescanPlanner) DrainPending() []string {
	var out []string
	for _, id := range p.queue {
		if r, ok := p.units[id]; ok && r.queued && !r.bound {
			delete(p.units, id)
			out = append(out, id)
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
	Forget(string)
	Plan(time.Time, Executor) time.Time
	NoteFailure(string, FailureClass, time.Time) Verdict
	Charges(string) int
	PendingLen() int
	DrainPending() []string
	Watermarks() map[string]Watermark
}

// planWorld is one planner with its own capacity-debiting executor.
type planWorld struct {
	p  tickPlanner
	ex *fakeExec
}

// drivePlanners decodes script two bytes at a time into Admit / Plan /
// NoteFailure / Forget / DrainPending calls, pilot capacity changes and
// policy switches, applies every step to the indexed Planner and to the
// rescan model — each over its own executor — and reports the first point
// at which anything observable differs.
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
	var ids []string
	cores := map[string]int{}
	nbinds := 0
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], script[step+1]
		pick := ""
		if len(ids) > 0 {
			pick = ids[int(arg)%len(ids)]
		}
		var got [2]any
		for i, w := range worlds {
			switch op % 8 {
			case 0, 1: // admit: mostly 1–4 cores, now and then one that fits nowhere
				if i == 0 {
					id := fmt.Sprintf("u%d", len(ids)+1)
					ids = append(ids, id)
					cores[id] = 1 + int(arg%4)
					if arg%32 == 31 {
						cores[id] = 9
					}
				}
				id := ids[len(ids)-1]
				w.p.Admit(UnitSpec{ID: id, Ordinal: uint64(len(ids)), Cores: cores[id], MaxRetries: int(arg>>2) % 3})
			case 2, 3: // tick, after 0–7 modeled seconds
				if i == 0 {
					now = now.Add(time.Duration(arg%8) * time.Second)
				}
				got[i] = w.p.Plan(now, w.ex)
			case 4: // a dispatched (or still queued, or unknown) unit fails
				w.ex.release(pick, cores[pick])
				got[i] = w.p.NoteFailure(pick, FailureClass(arg%2), now)
			case 5: // a unit finishes or is canceled
				w.ex.release(pick, cores[pick])
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
		if err := same(step, "Charges "+pick, worlds[0].p.Charges(pick), worlds[1].p.Charges(pick)); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if err := same(len(script), "Charges "+id, worlds[0].p.Charges(id), worlds[1].p.Charges(id)); err != nil {
			return err
		}
	}
	return nil
}

// checkCensus recounts the pending queue and compares it with the counters
// Plan's early exit trusts. A counter that only over-counts would never
// change a decision — just make every tick walk the whole queue again — so
// the comparison against the rescan model cannot see it.
func checkCensus(p *Planner) error {
	pending, parked := 0, 0
	bySize := map[int]int{}
	for r, prev := p.head, (*unitRec)(nil); r != nil; prev, r = r, r.next {
		if r.prev != prev || !r.queued || r.bound {
			return fmt.Errorf("queue entry %s: broken link or state (queued %v, bound %v)", r.spec.ID, r.queued, r.bound)
		}
		pending++
		bySize[r.spec.Cores]++
		if !r.retryAt.IsZero() {
			parked++
		}
	}
	if pending != p.pending || parked != p.parked {
		return fmt.Errorf("census: pending %d parked %d, queue holds %d and %d", p.pending, p.parked, pending, parked)
	}
	for _, c := range p.sizes {
		if c.queued != bySize[c.cores] {
			return fmt.Errorf("census: %d units of %d cores, queue holds %d", c.queued, c.cores, bySize[c.cores])
		}
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

// TestPlanMatchesRescan is the equivalence property: over randomized
// operation sequences — mixed core sizes, backoff-gated units in mid-queue,
// policy deferrals, failures of queued units, capacity rising between
// ticks — the indexed planner and the full-rescan model agree on bind
// order, nextWake, verdicts, PendingLen, Charges and Watermarks after
// every step.
func TestPlanMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := drivePlanners(planScript(seed, 400)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzPlanMatchesRescan exposes the same driver to the native fuzzer; the
// committed corpus under testdata/fuzz holds scripts from the seeds above.
func FuzzPlanMatchesRescan(f *testing.F) {
	f.Add(planScript(7, 64))
	f.Add(bytes.Repeat([]byte{0, 3, 0, 2, 2, 1, 4, 0, 6, 17}, 12))
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
// asks the executor once per distinct core size and allocates nothing.
func TestPlanTickCostIndependentOfDepth(t *testing.T) {
	p := newPlanner(Backoff{})
	const sizes, depth = 4, 10_000
	for i := 0; i < depth; i++ {
		p.Admit(UnitSpec{ID: fmt.Sprintf("u%d", i), Ordinal: uint64(i), Cores: sizes - i*sizes/depth})
	}
	ex := &countingExec{}
	p.Plan(t0, ex)
	if ex.calls != sizes {
		t.Fatalf("one tick made %d Candidates calls, want %d (one per core size)", ex.calls, sizes)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Plan(t0, ex) }); allocs != 0 {
		t.Fatalf("a tick over a full backlog allocates %.1f times, want 0", allocs)
	}
	if n := p.PendingLen(); n != depth {
		t.Fatalf("PendingLen = %d, want %d", n, depth)
	}
}
