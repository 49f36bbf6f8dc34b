// Package dataflow implements the paper's Table I "Dataflow" scenario: a
// directed-acyclic-graph execution engine over the pilot abstraction.
// Stages declare dependencies; each stage fans out into a configurable
// number of compute-units; a stage starts only when all its dependencies
// completed (Dryad-style coarse-grained dataflow, the model Pilot-Hadoop
// applications use for multi-stage pipelines).
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/vclock"
)

// TaskFunc is the body of one task of a stage; idx ranges over
// [0, Parallelism).
type TaskFunc func(ctx context.Context, tc core.TaskContext, idx int) error

// Stage is one node of the graph.
type Stage struct {
	// Name identifies the stage; unique within a graph.
	Name string
	// Deps lists stage names that must complete first.
	Deps []string
	// Parallelism is the fan-out into one-core tasks (default 1).
	Parallelism int
	// Run is the task body.
	Run TaskFunc
	// Pure marks Run as a side-effect-free CPU kernel: the engine then
	// executes it as a parallel compute phase (TaskContext.Compute), so
	// the stage's tasks use real cores under the virtual-time executor
	// while results stay bit-reproducible. A pure Run must not use
	// tc.Sleep, tc.Stream, tc.Data, or the clock (see DESIGN.md "Parallel
	// compute phase"); stages that model time or stage data leave this
	// false and call tc.Compute themselves around their CPU sections.
	Pure bool
}

// StageResult reports one executed stage.
type StageResult struct {
	Name    string
	Tasks   int
	Started time.Time
	Ended   time.Time
}

// Graph is a DAG of stages. The zero value is not usable; create with New.
type Graph struct {
	mu     sync.Mutex
	stages map[string]*Stage
	order  []string // insertion order, for deterministic scheduling
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{stages: make(map[string]*Stage)}
}

// Add inserts a stage. It returns an error on duplicate or anonymous
// stages so misconstructed pipelines fail fast.
func (g *Graph) Add(s Stage) error {
	if s.Name == "" {
		return errors.New("dataflow: stage needs a name")
	}
	if s.Run == nil {
		return fmt.Errorf("dataflow: stage %q has nil Run", s.Name)
	}
	if s.Parallelism <= 0 {
		s.Parallelism = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.stages[s.Name]; dup {
		return fmt.Errorf("dataflow: duplicate stage %q", s.Name)
	}
	g.stages[s.Name] = &s
	g.order = append(g.order, s.Name)
	return nil
}

// MustAdd is Add that panics, for statically correct pipeline literals.
func (g *Graph) MustAdd(s Stage) {
	if err := g.Add(s); err != nil {
		panic(err)
	}
}

// Validate checks that dependencies exist and the graph is acyclic.
func (g *Graph) Validate() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.validateLocked()
}

func (g *Graph) validateLocked() error {
	for name, s := range g.stages {
		for _, d := range s.Deps {
			if _, ok := g.stages[d]; !ok {
				return fmt.Errorf("dataflow: stage %q depends on unknown stage %q", name, d)
			}
		}
	}
	// Kahn's algorithm detects cycles.
	indeg := make(map[string]int, len(g.stages))
	for name := range g.stages {
		indeg[name] = 0
	}
	for _, s := range g.stages {
		for range s.Deps {
			indeg[s.Name]++
		}
	}
	queue := make([]string, 0, len(g.stages))
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue)
	seen := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range g.stages {
			for _, d := range s.Deps {
				if d == n {
					indeg[s.Name]--
					if indeg[s.Name] == 0 {
						queue = append(queue, s.Name)
					}
				}
			}
		}
	}
	if seen != len(g.stages) {
		return errors.New("dataflow: graph has a cycle")
	}
	return nil
}

// Run executes the graph on mgr, launching every stage as soon as its
// dependencies complete (stages without mutual dependencies overlap).
// It returns per-stage results keyed by stage name.
func (g *Graph) Run(ctx context.Context, mgr *core.Manager) (map[string]StageResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	stages := make(map[string]*Stage, len(g.stages))
	order := append([]string(nil), g.order...)
	for k, v := range g.stages {
		stages[k] = v
	}
	g.mu.Unlock()

	clock := mgr.Clock()
	doneEv := make(map[string]*vclock.Event, len(stages))
	for name := range stages {
		doneEv[name] = vclock.NewEvent(clock)
	}
	results := make(map[string]StageResult, len(stages))
	var resMu sync.Mutex
	var firstErr error
	var errOnce sync.Once
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	wg := vclock.NewGroup(clock)
	for _, name := range order {
		s := stages[name]
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			// Wait for dependencies.
			for _, d := range s.Deps {
				if !doneEv[d].Wait(runCtx) {
					return
				}
			}
			if runCtx.Err() != nil {
				return
			}
			res, err := runStage(runCtx, mgr, s)
			if err != nil {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("dataflow: stage %q: %w", s.Name, err)
					cancel()
				})
				return
			}
			resMu.Lock()
			results[s.Name] = res
			resMu.Unlock()
			doneEv[s.Name].Fire()
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func runStage(ctx context.Context, mgr *core.Manager, s *Stage) (StageResult, error) {
	clock := mgr.Clock()
	started := clock.Now()
	units := make([]*core.ComputeUnit, 0, s.Parallelism)
	for i := 0; i < s.Parallelism; i++ {
		i := i
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name:  fmt.Sprintf("%s[%d]", s.Name, i),
			Cores: 1,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !s.Pure {
					return s.Run(ctx, tc, i)
				}
				var err error
				if !tc.Compute(ctx, func() { err = s.Run(ctx, tc, i) }) {
					return ctx.Err()
				}
				return err
			},
		})
		if err != nil {
			return StageResult{}, err
		}
		units = append(units, u)
	}
	for _, u := range units {
		if st, err := u.Wait(ctx); st != core.UnitDone {
			return StageResult{}, fmt.Errorf("task %s %v: %w", u.ID(), st, err)
		}
	}
	return StageResult{Name: s.Name, Tasks: s.Parallelism, Started: started, Ended: clock.Now()}, nil
}
