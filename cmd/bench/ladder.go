package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/infra"
	"gopilot/internal/mapreduce"
	"gopilot/internal/plan"
	"gopilot/internal/saga"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// ladderBudget sets how long each rung is measured: the minimum over
// Samples runs of at least Target each. `-ladder` uses 5 × 200 ms; a
// traced run uses a fraction of that so it stays inside the run budget;
// the smoke test runs every rung once.
type ladderBudget struct {
	Samples int
	Target  time.Duration
}

var (
	fullLadder   = ladderBudget{Samples: 5, Target: 200 * time.Millisecond}
	tracedLadder = ladderBudget{Samples: 3, Target: 20 * time.Millisecond}
	smokeLadder  = ladderBudget{Samples: 1, Target: 0}
)

// rung times one layer's exported functions in isolation: it performs n
// chunks of work and returns how many ops that was and the host time the
// measured part took (its own set-up excluded).
type rung struct {
	name string
	run  func(n int, seed int64) (ops int64, elapsed time.Duration)
}

// ladderSink keeps results alive so the compiler cannot drop a rung's work.
var ladderSink uint64

// runLadder measures every rung and returns host time per op by name.
func runLadder(seed int64, b ladderBudget) map[string]float64 {
	out := make(map[string]float64, len(rungs))
	for _, r := range rungs {
		// Calibrate: grow n until the measured part of one run lasts the
		// target, or the run with its own set-up lasts five times that
		// (rungs that must rebuild a log per chunk).
		n := 1
		w0 := time.Now()
		ops, elapsed := r.run(n, seed)
		for wall := time.Since(w0); elapsed < b.Target && wall < 5*b.Target && n < 1<<24; wall = time.Since(w0) {
			grow := 16.0
			if elapsed > 0 {
				grow = min(grow, 1.2*float64(b.Target)/float64(elapsed))
			}
			if wall > 0 {
				grow = min(grow, 5*float64(b.Target)/float64(wall))
			}
			n = int(float64(n)*grow) + 1
			w0 = time.Now()
			ops, elapsed = r.run(n, seed)
		}
		best := float64(elapsed.Nanoseconds()) / float64(ops)
		for s := 1; s < b.Samples; s++ {
			ops, elapsed = r.run(n, seed)
			best = min(best, float64(elapsed.Nanoseconds())/float64(ops))
		}
		out[r.name] = best
	}
	return out
}

// onVirtual runs fn as the adopted driver of a fresh virtual clock.
func onVirtual(fn func(c *vclock.Virtual)) {
	c := vclock.NewVirtual(vclock.Epoch)
	c.Adopt()
	defer c.Leave()
	fn(c)
}

var bg = context.Background()

const (
	ladderBatch  = 4096 // messages per publish, as the stream workloads
	ladderChunk  = 8    // publishes per chunk: 32768 messages, then a fresh log
	ladderTopic  = "ladder"
	ladderParts  = 8
	ladderShards = 4
)

func ladderBroker(c vclock.Clock) *streaming.Broker {
	b := streaming.NewBroker(streaming.BrokerConfig{
		Name: "ladder", AppendCost: 20 * time.Microsecond, FetchLatency: time.Millisecond,
		SegmentSize: streamSegSize, Clock: c,
	})
	must(b.CreateTopic(ladderTopic, ladderParts))
	return b
}

func ladderValues() [][]byte {
	payload := streamPayload()
	values := make([][]byte, ladderBatch)
	for i := range values {
		values[i] = payload
	}
	return values
}

// fill publishes one chunk untimed.
func fill(b streaming.Bus, values [][]byte) {
	for i := 0; i < ladderChunk; i++ {
		must(b.PublishValues(bg, ladderTopic, values))
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench ladder: %v", err))
	}
}

// clusterPublish times PublishValues on a 4-shard cluster at the given
// replication, with no consumer and no in-flight bound: each publish
// returns at the quorum watermark, so at replication > 1 the per-link
// catch-up runners are on the path.
func clusterPublish(replication int) func(n int, _ int64) (int64, time.Duration) {
	return func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				cl := streaming.NewCluster(streaming.ClusterConfig{
					Name: "ladder", Shards: ladderShards, Replication: replication,
					AppendCost: 20 * time.Microsecond, FetchLatency: time.Millisecond,
					SegmentSize: streamSegSize, Clock: c,
				})
				must(cl.CreateTopic(ladderTopic, ladderParts))
				t0 := time.Now()
				fill(cl, values)
				elapsed += time.Since(t0)
				cl.Close()
			}
		})
		return int64(n) * ladderChunk * ladderBatch, elapsed
	}
}

// planTick times one Plan tick over a queue of pending units that fit
// nowhere, the rescan a completion tick pays for every unit still queued.
func planTick(pending int) func(n int, _ int64) (int64, time.Duration) {
	return func(n int, _ int64) (int64, time.Duration) {
		p := plan.New(plan.Config{})
		for i := 0; i < pending; i++ {
			p.Admit(plan.UnitSpec{ID: "u" + strconv.Itoa(i), Ordinal: uint64(i), Cores: 1})
		}
		ex := stubExecutor{}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Plan(vclock.Epoch, ex)
		}
		return int64(n), time.Since(t0)
	}
}

// stubExecutor offers no capacity unless it has a pilot to offer.
type stubExecutor struct{ pilot string }

func (s stubExecutor) Candidates(plan.UnitSpec) []plan.Candidate {
	if s.pilot == "" {
		return nil
	}
	return []plan.Candidate{{ID: s.pilot, Backend: "local://ladder", FreeCores: 1 << 20}}
}

func (stubExecutor) Bind(plan.UnitSpec, string) {}

// pingPong times n round trips between the driver and one partner
// participant: ping hands the turn over, pong waits for it back.
func pingPong(c *vclock.Virtual, n int, ping, pong func(i int), partner func(i int)) time.Duration {
	done := vclock.NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		for i := 0; i < n; i++ {
			partner(i)
		}
	})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ping(i)
		pong(i)
	}
	elapsed := time.Since(t0)
	done.Wait()
	return elapsed
}

var rungs = []rung{
	// --- vclock ---
	{"vclock.sleep_advance_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				c.Sleep(bg, time.Microsecond)
			}
			elapsed = time.Since(t0)
		})
		return int64(n), elapsed
	}},
	{"vclock.decision_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			c.StartRecorder(vclock.RecorderConfig{})
			t0 := time.Now()
			for i := 0; i < n; i++ {
				c.Sleep(bg, time.Microsecond)
			}
			elapsed = time.Since(t0)
			ops = int64(c.RecorderState().Decisions)
		})
		return ops, elapsed
	}},
	{"vclock.event_park_wake_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			ping := make([]*vclock.Event, n)
			pong := make([]*vclock.Event, n)
			for i := range ping {
				ping[i], pong[i] = vclock.NewEvent(c), vclock.NewEvent(c)
			}
			elapsed = pingPong(c, n,
				func(i int) { ping[i].Fire() },
				func(i int) { pong[i].Wait(bg) },
				func(i int) { ping[i].Wait(bg); pong[i].Fire() })
		})
		return 2 * int64(n), elapsed // two park/wake pairs per round trip
	}},
	{"vclock.notifier_roundtrip_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			ping, pong := vclock.NewNotifier(c), vclock.NewNotifier(c)
			elapsed = pingPong(c, n,
				func(int) { ping.Set() },
				func(int) { pong.Wait(bg) },
				func(int) { ping.Wait(bg); pong.Set() })
		})
		return int64(n), elapsed
	}},
	{"vclock.sem_roundtrip_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			s := vclock.NewSem(c, 1)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				s.Acquire(bg)
				s.Release()
			}
			elapsed = time.Since(t0)
		})
		return int64(n), elapsed
	}},
	{"vclock.compute_roundtrip_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				vclock.Compute(c, bg, func() {})
			}
			elapsed = time.Since(t0)
		})
		return int64(n), elapsed
	}},
	{"vclock.go_spawn_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			g := vclock.NewGroup(c)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				g.Add(1)
				c.Go(g.Done)
			}
			g.Wait()
			elapsed = time.Since(t0)
		})
		return int64(n), elapsed
	}},

	// --- streaming: one broker ---
	{"streaming.broker.publish_values_ns_per_msg", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				b := ladderBroker(c)
				t0 := time.Now()
				fill(b, values)
				elapsed += time.Since(t0)
				b.Close()
			}
		})
		return int64(n) * ladderChunk * ladderBatch, elapsed
	}},
	{"streaming.broker.publish_keyed_ns_per_msg", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		payload := streamPayload()
		kvs := make([][2][]byte, ladderBatch)
		for i := range kvs {
			kvs[i] = [2][]byte{[]byte("key-" + strconv.Itoa(i)), payload}
		}
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				b := ladderBroker(c)
				t0 := time.Now()
				for j := 0; j < ladderChunk; j++ {
					msgs, err := b.PublishBatch(bg, ladderTopic, kvs)
					must(err)
					ladderSink += uint64(len(msgs))
				}
				elapsed += time.Since(t0)
				b.Close()
			}
		})
		return int64(n) * ladderChunk * ladderBatch, elapsed
	}},
	{"streaming.broker.fetch_ns_per_msg", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				b := ladderBroker(c)
				fill(b, values)
				t0 := time.Now()
				for q := 0; q < ladderParts; q++ {
					end, err := b.EndOffset(ladderTopic, q)
					must(err)
					for off := int64(0); off < end; {
						batch, err := b.Fetch(bg, ladderTopic, q, off, streamFetchBatch)
						must(err)
						off += int64(len(batch))
						ops += int64(len(batch))
					}
				}
				elapsed += time.Since(t0)
				b.Close()
			}
		})
		return ops, elapsed
	}},
	{"streaming.broker.commit_ns_per_call", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for left := n; left > 0; {
				b := ladderBroker(c)
				fill(b, values)
				end, err := b.EndOffset(ladderTopic, 0)
				must(err)
				k := min(int64(left), end)
				t0 := time.Now()
				for through := int64(1); through <= k; through++ {
					must(b.Commit(ladderTopic, 0, through))
				}
				elapsed += time.Since(t0)
				left -= int(k)
				b.Close()
			}
		})
		return int64(n), elapsed
	}},
	{"streaming.broker.trim_ns_per_msg", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				b := ladderBroker(c)
				fill(b, values)
				for q := 0; q < ladderParts; q++ {
					end, err := b.EndOffset(ladderTopic, q)
					must(err)
					must(b.Commit(ladderTopic, q, end))
					t0 := time.Now()
					_, err = b.Trim(ladderTopic, q, end)
					elapsed += time.Since(t0)
					must(err)
					ops += end
				}
				b.Close()
			}
		})
		return ops, elapsed
	}},

	// --- streaming: the federated cluster ---
	{"streaming.cluster.publish_r1_ns_per_msg", clusterPublish(1)},
	{"streaming.cluster.publish_r2_ns_per_msg", clusterPublish(2)},
	{"streaming.cluster.publish_r3_ns_per_msg", clusterPublish(3)},
	{"streaming.cluster.failshard_host_ms", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		values := ladderValues()
		onVirtual(func(c *vclock.Virtual) {
			for i := 0; i < n; i++ {
				cl := streaming.NewCluster(streaming.ClusterConfig{
					Name: "ladder", Shards: ladderShards, Replication: 3,
					AppendCost: 20 * time.Microsecond, FetchLatency: time.Millisecond,
					SegmentSize: streamSegSize, Clock: c,
				})
				must(cl.CreateTopic(ladderTopic, ladderParts))
				fill(cl, values)
				victim, err := cl.LeaderOf(ladderTopic, 0)
				must(err)
				t0 := time.Now()
				must(cl.FailShard(victim))
				elapsed += time.Since(t0)
				cl.Close()
			}
		})
		return int64(n) * 1e6, elapsed // the one rung in ms: 1e6 ns-ops per call
	}},
	{"streaming.offsets.save_ns", func(n int, _ int64) (int64, time.Duration) {
		s := streaming.NewOffsetStore()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Save("g", ladderTopic, i%ladderParts, int64(i))
		}
		return int64(n), time.Since(t0)
	}},
	{"streaming.group.handler_ns_per_msg", func(n int, _ int64) (int64, time.Duration) {
		payload := streamPayload()
		t0 := time.Now()
		var acc byte
		for i := 0; i < n*ladderBatch; i++ {
			payload[0] = byte(i)
			acc ^= foldPayload(payload)
		}
		ladderSink += uint64(acc)
		return int64(n) * ladderBatch, time.Since(t0)
	}},

	// --- plan ---
	{"plan.tick_ns_pending10", planTick(10)},
	{"plan.tick_ns_pending1e3", planTick(1000)},
	{"plan.tick_ns_pending1e5", planTick(100_000)},
	{"plan.admit_ns", func(n int, _ int64) (int64, time.Duration) {
		specs := make([]plan.UnitSpec, n)
		for i := range specs {
			specs[i] = plan.UnitSpec{ID: "u" + strconv.Itoa(i), Ordinal: uint64(i), Cores: 1}
		}
		p := plan.New(plan.Config{})
		t0 := time.Now()
		for _, s := range specs {
			p.Admit(s)
		}
		return int64(n), time.Since(t0)
	}},
	{"plan.note_failure_ns", func(n int, _ int64) (int64, time.Duration) {
		p := plan.New(plan.Config{})
		ids := make([]string, n)
		for i := range ids {
			ids[i] = "u" + strconv.Itoa(i)
			p.Admit(plan.UnitSpec{ID: ids[i], Ordinal: uint64(i), Cores: 1, MaxRetries: 3})
		}
		p.Plan(vclock.Epoch, stubExecutor{pilot: "p0"}) // bind them all
		t0 := time.Now()
		for _, id := range ids {
			p.NoteFailure(id, plan.FailureExecution, vclock.Epoch)
		}
		return int64(n), time.Since(t0)
	}},
	{"plan.shard_replicas_ns", func(n int, _ int64) (int64, time.Duration) {
		live := []int{0, 1, 2, 3}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += uint64(len(plan.ShardReplicas(ladderTopic, i%ladderParts, live, 3)))
		}
		return int64(n), time.Since(t0)
	}},
	{"plan.divergence_point_ns", func(n int, _ int64) (int64, time.Duration) {
		// A follower that kept 500 entries of a deposed epoch the leader
		// replaced: the shape a post-handoff catch-up round sees.
		leader := []plan.EpochSpan{{Epoch: 0, Start: 0}, {Epoch: 1, Start: 4000}, {Epoch: 2, Start: 9000}}
		replica := []plan.EpochSpan{{Epoch: 0, Start: 0}, {Epoch: 1, Start: 4000}}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			at, _ := plan.DivergencePoint(leader, replica, 1000, 12000, 9500)
			ladderSink += uint64(at)
		}
		return int64(n), time.Since(t0)
	}},
	{"plan.detect_drift_ns_units1e3", func(n int, _ int64) (int64, time.Duration) {
		const units, pilots = 1000, 20
		us := make([]plan.UnitStatus, units)
		ps := make([]plan.PilotStatus, pilots)
		for i := range ps {
			ps[i] = plan.PilotStatus{ID: "p" + strconv.Itoa(i), Running: true}
		}
		for i := range us {
			p := &ps[i%pilots]
			us[i] = plan.UnitStatus{ID: "u" + strconv.Itoa(i), Bound: true, Started: true, Pilot: p.ID}
			p.Units = append(p.Units, us[i].ID)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += uint64(len(plan.DetectDrift(us, ps)))
		}
		return int64(n), time.Since(t0)
	}},

	// --- core / saga ---
	{"core.unit_roundtrip_ns", func(n int, seed int64) (ops int64, elapsed time.Duration) {
		// 256 units per fresh manager: the manager keeps every unit it ever
		// ran, and the rung prices the shallow-history round trip.
		const chunk = 256
		d := core.UnitDescription{Name: "rt", Cores: 1, Run: func(ctx context.Context, tc core.TaskContext) error {
			tc.Sleep(ctx, time.Second)
			return nil
		}}
		for i := 0; i < n; i++ {
			withLocalPilot(seed, func(mgr *core.Manager) {
				t0 := time.Now()
				for j := 0; j < chunk; j++ {
					u, err := mgr.SubmitUnit(d)
					must(err)
					if s, err := u.Wait(bg); s != core.UnitDone {
						panic(fmt.Sprintf("bench ladder: unit ended %v: %v", s, err))
					}
				}
				elapsed += time.Since(t0)
			})
		}
		return int64(n) * chunk, elapsed
	}},
	{"core.dispatch_tick_ns_pending1e3", func(n int, seed int64) (ops int64, elapsed time.Duration) {
		// The same rescan as plan.tick_ns_pending1e3, through the manager's
		// real executor: 20 busy one-core pilots, 1000 pending units that
		// fit nowhere, and one dispatch pass per kick. The 1 µs sleep hands
		// the token to the dispatch loop and back.
		const pilots, pending = 20, 1000
		tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, Seed: seed})
		defer tb.Close()
		mgr := tb.NewManager(nil)
		for i := 0; i < pilots; i++ {
			p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://localhost", Cores: 1, Walltime: 1000 * time.Hour})
			must(err)
			must(p.WaitRunning(bg))
		}
		hold := core.UnitDescription{Name: "hold", Cores: 1, Run: func(ctx context.Context, tc core.TaskContext) error {
			tc.Sleep(ctx, 500*time.Hour)
			return nil
		}}
		for i := 0; i < pilots+pending; i++ {
			_, err := mgr.SubmitUnit(hold)
			must(err)
		}
		tb.Clock.Sleep(bg, time.Second) // the first pass binds one unit per pilot
		if depth := mgr.QueueDepth(); depth != pending {
			panic(fmt.Sprintf("bench ladder: %d units pending, want %d", depth, pending))
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			mgr.Kick()
			tb.Clock.Sleep(bg, time.Microsecond)
		}
		return int64(n), time.Since(t0)
	}},
	{"experiments.testbed_roundtrip_ns", func(n int, seed int64) (int64, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, Seed: seed}).Close()
		}
		return int64(n), time.Since(t0)
	}},
	{"core.submit_pilot_host_ns", func(n int, seed int64) (ops int64, elapsed time.Duration) {
		tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, Seed: seed})
		defer tb.Close()
		mgr := tb.NewManager(nil)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://localhost", Cores: 1, Walltime: time.Hour})
			must(err)
			must(p.WaitRunning(bg))
		}
		return int64(n), time.Since(t0)
	}},
	{"saga.local_job_roundtrip_ns", func(n int, seed int64) (int64, time.Duration) {
		return sagaRoundtrip("local://localhost", 1, n, seed)
	}},
	{"saga.hpc_job_roundtrip_ns", func(n int, seed int64) (int64, time.Duration) {
		return sagaRoundtrip("hpc://stampede", 16, n, seed)
	}},

	// --- mapreduce / data / dist ---
	{"mapreduce.encode_ns_per_kv", func(n int, _ int64) (int64, time.Duration) {
		kvs := ladderKVs()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += uint64(len(mapreduce.Encode(kvs)))
		}
		return int64(n * len(kvs)), time.Since(t0)
	}},
	{"mapreduce.decode_ns_per_kv", func(n int, _ int64) (int64, time.Duration) {
		kvs := ladderKVs()
		enc := mapreduce.Encode(kvs)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			got, err := mapreduce.Decode(enc)
			must(err)
			ladderSink += uint64(len(got))
		}
		return int64(n * len(kvs)), time.Since(t0)
	}},
	{"mapreduce.group_ns_per_kv", func(n int, _ int64) (int64, time.Duration) {
		kvs := ladderKVs()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += uint64(len(mapreduce.Group(kvs)))
		}
		return int64(n * len(kvs)), time.Since(t0)
	}},
	{"data.put_host_ns", func(n int, _ int64) (ops int64, elapsed time.Duration) {
		onVirtual(func(c *vclock.Virtual) {
			svc := data.NewService(data.Config{Clock: c, LocalBandwidth: 500e6})
			content := []byte("split")
			t0 := time.Now()
			for i := 0; i < n; i++ {
				must(svc.Put(bg, data.Unit{ID: "d" + strconv.Itoa(i%1024), Content: content, LogicalSize: 128e6, Site: "yarn"}))
			}
			elapsed = time.Since(t0)
		})
		return int64(n), elapsed
	}},
	{"dist.uint64_ns", func(n int, seed int64) (int64, time.Duration) {
		s := dist.NewStream(seed).Named("bench/ladder/uint64")
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += s.Uint64()
		}
		return int64(n), time.Since(t0)
	}},
	{"dist.lognormal_sample_ns", func(n int, seed int64) (int64, time.Duration) {
		d := dist.LogNormalFrom(dist.NewStream(seed).Named("bench/ladder/lognormal"), 1, 0.1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += uint64(d.Sample())
		}
		return int64(n), time.Since(t0)
	}},
	{"dist.named_ns", func(n int, seed int64) (int64, time.Duration) {
		root := dist.NewStream(seed)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += root.Named("runtime").Uint64() // one draw rides along
		}
		return int64(n), time.Since(t0)
	}},
	{"dist.split_label_ns", func(n int, seed int64) (int64, time.Duration) {
		root := dist.NewStream(seed)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += root.SplitLabel(uint64(i)).Uint64()
		}
		return int64(n), time.Since(t0)
	}},
	{"dist.zipf_ns", func(n int, seed int64) (int64, time.Duration) {
		z := dist.ZipfFrom(dist.NewStream(seed).Named("bench/ladder/zipf"), 1.3, 1, uint64(fullSizes.Vocabulary-1))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += z.Uint64()
		}
		return int64(n), time.Since(t0)
	}},
}

// ladderKVs is one reducer partition's worth of combined wordcount pairs.
func ladderKVs() []mapreduce.KeyValue {
	kvs := make([]mapreduce.KeyValue, fullSizes.Vocabulary/wcReducers)
	for i := range kvs {
		kvs[i] = mapreduce.KeyValue{Key: "w" + strconv.Itoa(i*wcReducers), Value: strconv.Itoa(1 + i%97)}
	}
	return kvs
}

// withLocalPilot hands fn a manager with one idle 4-core local pilot.
func withLocalPilot(seed int64, fn func(mgr *core.Manager)) {
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, Seed: seed})
	defer tb.Close()
	mgr := tb.NewManager(nil)
	p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://localhost", Cores: 4, Walltime: 1000 * time.Hour})
	must(err)
	must(p.WaitRunning(bg))
	fn(mgr)
}

// sagaRoundtrip times submit → run an empty payload → Done on one backend.
func sagaRoundtrip(url string, cores, n int, seed int64) (int64, time.Duration) {
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, QueueWaitMean: 5, Seed: seed})
	defer tb.Close()
	svc, err := tb.Registry.Lookup(url)
	must(err)
	d := saga.Description{Name: "rt", TotalCores: cores, Walltime: time.Hour,
		Payload: func(context.Context, infra.Allocation) error { return nil }}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		j, err := svc.Submit(d)
		must(err)
		if s, err := j.Wait(bg); s != saga.Done {
			panic(fmt.Sprintf("bench ladder: %s job ended %v: %v", url, s, err))
		}
	}
	return int64(n), time.Since(t0)
}
