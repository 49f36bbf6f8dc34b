package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/apps/rexchange"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dist"
	"gopilot/internal/metrics"
	"gopilot/internal/perfmodel"
	"gopilot/internal/scheduler"
)

// RexScaling reproduces Table II's Pilot-Job strong-scaling study with the
// analytical-model comparison of Thota et al. [72] (E3): replica-exchange
// at fixed ensemble size on growing pilots; measured makespan next to the
// RexModel prediction. The shape to reproduce: near-linear speedup while
// waves shrink, flattening once concurrency == ensemble size, with the
// model tracking measurements.
func RexScaling() (*metrics.Table, error) {
	const (
		replicas  = 32
		cycles    = 3
		mdSeconds = 60
		exchange  = 5 * time.Second
	)
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 30, Seed: 3})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3/4) — replica-exchange strong scaling (%d replicas × %d cycles, MD %ds)", replicas, cycles, mdSeconds),
		"pilot_cores", "measured", "model", "model_err_%", "speedup", "efficiency")

	var base time.Duration
	for _, cores := range []int{8, 16, 32, 64} {
		mgr := tb.NewManager(nil)
		p, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "rex", Resource: "local://localhost", Cores: cores, Walltime: 6 * time.Hour,
		})
		if err != nil {
			return nil, err
		}
		res, err := rexchange.Run(ctx, mgr, rexchange.Config{
			Replicas: replicas, Cycles: cycles,
			MDTime: dist.Constant(mdSeconds), ExchangeTime: exchange, Stream: tb.Root.Named("app/rexchange"),
		})
		if err != nil {
			return nil, err
		}
		p.Shutdown()

		model := perfmodel.RexModel{
			Replicas: replicas, CoresPerReplica: 1, PilotCores: cores,
			MD: time.Duration(mdSeconds) * time.Second, Exchange: exchange,
		}
		predicted := model.Total(cycles)
		errPct := (res.Elapsed.Seconds() - predicted.Seconds()) / predicted.Seconds() * 100
		if base == 0 {
			base = res.Elapsed
		}
		t.AddRow(cores,
			metrics.FormatDuration(res.Elapsed),
			metrics.FormatDuration(predicted),
			fmt.Sprintf("%+.1f", errPct),
			fmt.Sprintf("%.2f", metrics.Speedup(base, res.Elapsed)),
			fmt.Sprintf("%.2f", metrics.Speedup(base, res.Elapsed)/(float64(cores)/8)))
	}
	return t, nil
}

// PilotData reproduces Table II's Pilot-Data evaluation (E4): the same
// data-intensive bag of tasks under a data-oblivious and a data-aware
// scheduler across two sites. The shape: data-aware placement avoids
// nearly all cross-site transfers and wins on makespan; the gap widens
// with data size (data gravity).
func PilotData() (*metrics.Table, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		"Table II (Eval 3/4) — Pilot-Data: data-aware vs data-oblivious scheduling (16 tasks, 2 sites)",
		"chunk_size", "scheduler", "makespan", "bytes_moved_GB", "remote_reads", "local_reads")

	for _, chunkMB := range []float64{100, 1000} {
		for _, sched := range []core.Scheduler{scheduler.LeastLoaded{}, scheduler.DataAware{}} {
			tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 4})
			mgr := tb.NewManager(sched)
			// One pilot per site; data lives at stampede.
			if _, err := mgr.SubmitPilot(core.PilotDescription{
				Name: "pA", Resource: "hpc://stampede", Cores: 16, Walltime: 6 * time.Hour,
			}); err != nil {
				tb.Close()
				return nil, err
			}
			if _, err := mgr.SubmitPilot(core.PilotDescription{
				Name: "pB", Resource: "hpc://comet", Cores: 16, Walltime: 6 * time.Hour,
			}); err != nil {
				tb.Close()
				return nil, err
			}
			const tasks = 16
			for i := 0; i < tasks; i++ {
				if err := tb.Data.Put(ctx, data.Unit{
					ID:          fmt.Sprintf("pd-%d", i),
					Content:     []byte("chunk"),
					LogicalSize: int64(chunkMB * 1e6),
					Site:        "stampede",
				}); err != nil {
					tb.Close()
					return nil, err
				}
			}
			tb.Data.ResetStats()
			start := tb.Clock.Now()
			units := make([]*core.ComputeUnit, 0, tasks)
			for i := 0; i < tasks; i++ {
				id := fmt.Sprintf("pd-%d", i)
				u, err := mgr.SubmitUnit(core.UnitDescription{
					Name: "pd-task-" + id, InputData: []string{id},
					Run: func(ctx context.Context, tc core.TaskContext) error {
						if _, err := tc.Data.Read(ctx, id, tc.Site); err != nil {
							return err
						}
						// 30s of compute per chunk.
						if !tc.Sleep(ctx, 30*time.Second) {
							return ctx.Err()
						}
						return nil
					},
				})
				if err != nil {
					tb.Close()
					return nil, err
				}
				units = append(units, u)
			}
			for _, u := range units {
				if s, err := u.Wait(ctx); s != core.UnitDone {
					tb.Close()
					return nil, fmt.Errorf("pilot-data unit %v: %w", s, err)
				}
			}
			makespan := tb.Clock.Now().Sub(start)
			st := tb.Data.Stats()
			t.AddRow(
				fmt.Sprintf("%.0fMB", chunkMB),
				sched.Name(),
				metrics.FormatDuration(makespan),
				fmt.Sprintf("%.2f", float64(st.BytesMoved)/1e9),
				st.RemoteReads+st.Replications,
				st.LocalReads)
			tb.Close()
		}
	}
	return t, nil
}
