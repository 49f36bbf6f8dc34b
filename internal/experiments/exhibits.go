package experiments

import "gopilot/internal/metrics"

// Size is the scale an exhibit runs at; an exhibit with one size ignores it.
type Size int

const (
	small Size = iota // the package's tests: every exhibit twice, in seconds
	Bench             // the root benchmarks, gated by BENCH_baseline.json
	Full              // cmd/experiments, the tables EXPERIMENTS.md records
)

// pick returns the count for s.
func (s Size) pick(atSmall, atBench, atFull int) int {
	return [...]int{atSmall, atBench, atFull}[s]
}

// Exhibit is one table- or figure-shaped result: a function of its seed.
type Exhibit struct {
	Name  string // the cmd/experiments -run name
	Title string
	Seed  int64
	Run   func(seed int64, s Size) (*metrics.Table, error)
}

// Exhibits lists every exhibit once, in the order cmd/experiments runs them.
// An exhibit that builds a second testbed seeds it from its own (seed+1, ...).
var Exhibits = []Exhibit{
	{"table1", "Table I — five application scenarios on one abstraction (E1)", 1, table1},
	{"overhead", "Table II — pilot startup & task overhead per backend (E2)", 2, pilotOverhead},
	{"rex", "Table II — replica-exchange strong scaling + analytical model (E3)", 3, rexScaling},
	{"pilotdata", "Table II — Pilot-Data data-aware vs data-oblivious (E4)", 4, pilotData},
	{"mapreduce", "Table II — Pilot-Hadoop wordcount strong scaling (E5)", 5, mapReduceScaling},
	{"memory", "Table II — Pilot-Memory vs Pilot-Data for iterative K-Means (E6)", 7, pilotMemory},
	{"streaming", "Table II — Pilot-Streaming throughput & latency (E7)", 8, streamingScaling},
	{"serverless", "Table II — cluster vs serverless stream processing (E7b)", 19, serverlessStreaming},
	{"model", "Table II — statistical throughput model, fit + holdout (E8)", 9, throughputModel},
	{"latebinding", "E9 — direct submission vs pilot under queue waits", 100, lateBinding},
	{"dynamic", "E9b — runtime cloud bursting (R3 dynamism)", 13, dynamicScaling},
	{"fig5", "Fig. 5 — automated build-assess-refine loop", 14, fig5Loop},
	{"ablation", "E11 — algorithm optimization vs scale-out (Hausdorff)", 16, ablationAlgorithm},
	{"enkf", "E12 — adaptive EnKF ensemble (runtime task creation)", 17, enKFAdaptive},
	{"million", "E13 — million-message streaming data plane (consumer group, backpressure)", 23, func(seed int64, s Size) (*metrics.Table, error) {
		return MillionMessages(seed, s.pick(40_000, 1_000_000, 1_000_000))
	}},
}

// Find returns the exhibit whose -run name is name, or nil.
func Find(name string) *Exhibit {
	for i := range Exhibits {
		if Exhibits[i].Name == name {
			return &Exhibits[i]
		}
	}
	return nil
}
