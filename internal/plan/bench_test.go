package plan

import (
	"fmt"
	"testing"
	"time"
)

// tickExec is the benchmark's debiting executor: a fixed pilot pool whose
// free cores Bind consumes, answering Candidates from reused scratch so the
// measurement is the planner's tick, not the executor's allocator.
type tickExec struct {
	pilots  []Candidate
	scratch []Candidate
	bound   []string // units bound since the benchmark last took them
}

func (e *tickExec) Candidates(u UnitSpec) []Candidate {
	e.scratch = e.scratch[:0]
	for _, p := range e.pilots {
		if p.FreeCores >= u.Cores {
			e.scratch = append(e.scratch, p)
		}
	}
	return e.scratch
}

func (e *tickExec) Bind(u UnitSpec, pilotID string) {
	for i := range e.pilots {
		if e.pilots[i].ID == pilotID {
			e.pilots[i].FreeCores -= u.Cores
		}
	}
	e.bound = append(e.bound, u.ID)
}

// BenchmarkPlanTick prices the tick the manager actually pays at a given
// queue depth, in two shapes. Mixed: a 1–4-core backlog, sizes interleaved,
// over 20 full pilots; between ticks one completion hands a few cores back
// to one pilot, so every tick binds what now fits and leaves the rest
// queued. Starved: the same, behind a front of depth 4-core units that
// never fit (completions hand back at most three cores to a pilot that then
// fills up again) — the shape a deep backlog settles into once backfill has
// eaten the small units off its front, and the one in which a tick that
// walks the queue pays for the depth. (cmd/bench's plan.tick_ns_pending*
// rung — all 1-core, fits nowhere — prices only the early exit.) Only Plan
// is on the clock: the units a tick binds are forgotten and replaced at the
// tail off it, which holds the depth, so ns/op is reported from the
// benchmark's own timer and carries one time.Now/Since pair (~40 ns) per
// tick.
func BenchmarkPlanTick(b *testing.B) {
	for _, starved := range []bool{false, true} {
		for _, depth := range []int{10, 1000, 100_000} {
			name, handBack := fmt.Sprint(depth), 4
			if starved {
				name, handBack = "starved/"+name, 3
			}
			b.Run(name, func(b *testing.B) {
				p := New(Config{})
				ordinal := 0
				admit := func() {
					ordinal++
					cores := 1 + (ordinal*7)%4
					if starved {
						cores = 1 + ordinal%3 // behind the front
						if ordinal <= depth {
							cores = 4
						}
					}
					p.Admit(UnitSpec{ID: fmt.Sprint("u", ordinal), Ordinal: uint64(ordinal), Cores: cores})
				}
				for i := 0; i < depth; i++ {
					admit()
				}
				for i := 0; starved && i < 64; i++ {
					admit()
				}
				ex := &tickExec{pilots: make([]Candidate, 20)}
				for i := range ex.pilots {
					ex.pilots[i] = Candidate{ID: fmt.Sprint("p", i), Backend: "hpc://bench"}
				}
				var inPlan time.Duration
				binds := 0
				for i := 0; i < b.N; i++ {
					ex.pilots[i%len(ex.pilots)].FreeCores += 1 + i%handBack
					start := time.Now()
					p.Plan(t0, ex)
					inPlan += time.Since(start)
					binds += len(ex.bound)
					for _, id := range ex.bound {
						p.Forget(id)
						admit()
					}
					ex.bound = ex.bound[:0]
				}
				b.ReportMetric(float64(inPlan.Nanoseconds())/float64(b.N), "ns/op")
				b.ReportMetric(float64(binds)/float64(b.N), "binds/op")
			})
		}
	}
}
