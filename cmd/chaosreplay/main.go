// Command chaosreplay drives the chaos workflow from the command line:
//
//	chaosreplay -fuzz 25                  # scan 25 seeds, print the first reproducing seed
//	chaosreplay -seed 17                  # replay one seed and verify bit-identity
//	chaosreplay -seed 17 -bisect          # minimal failing fault prefix + first divergent decision
//	chaosreplay -bug -churn 6 -fuzz 8 ... # prove the suite catches the reintroduced barrier bug
//	chaosreplay -handoffbug -shardloss 1 -churn 4 -replicalag 2 -fuzz 8
//	                                      # same for the stale-handoff defect: a shard-loss
//	                                      # promotion restores a stale commit mark and skips
//	                                      # divergence repair; the cursor-rewind and
//	                                      # diverged-replica invariants must catch it
//
// Every run is deterministic: a seed that fails here fails identically
// everywhere, and the recorded vclock schedule lets two runs be compared
// decision-by-decision. Exit status: 0 all invariants held, 1 a violation
// was found (the reproducing seed is printed), 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gopilot/internal/chaos"
	"gopilot/internal/experiments"
	"gopilot/internal/vclock"
)

func main() {
	fuzz := flag.Int("fuzz", 0, "fuzz mode: run this many consecutive seeds starting at -seed0")
	seed0 := flag.Int64("seed0", 0, "first seed for -fuzz")
	seed := flag.Int64("seed", 0, "seed to replay (ignored with -fuzz)")
	bisect := flag.Bool("bisect", false, "on a failing replay, bisect to the minimal fault prefix and pinpoint the first divergent decision")
	bug := flag.Bool("bug", false, "reintroduce the barrier-carry defect (test hook) so the suite has something to catch")
	handoffBug := flag.Bool("handoffbug", false, "reintroduce the stale-handoff defect (test hook): shard-loss promotions restore a stale offset checkpoint")
	messages := flag.Int("messages", 0, "stream messages to produce (0 = scenario default)")
	units := flag.Int("units", 0, "batch units to submit (0 = scenario default)")
	cost := flag.Duration("cost", 0, "modeled per-message handling cost (0 = scenario default)")
	// One override-mix flag per fault kind the fault table gives one; any
	// of them replaces the default mix with the override mix.
	mix := map[chaos.Kind]*int{}
	for k := chaos.Kind(0); k < chaos.NumKinds; k++ {
		if name := k.Flag(); name != "" {
			mix[k] = flag.Int(name, 0, fmt.Sprintf("put this many %s faults in the override mix, which replaces the default mix", k))
			passthrough[name] = true
		}
	}
	horizon := flag.Duration("horizon", 0, "fault-plan horizon (only with an override mix; 0 = 3m)")
	verbose := flag.Bool("v", false, "print per-seed results in fuzz mode and full injection logs")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	opts := func(s int64, maxFaults int, rec vclock.RecorderConfig) experiments.ChaosOptions {
		o := experiments.ChaosOptions{
			Seed: s, BarrierBug: *bug, HandoffBug: *handoffBug, MaxFaults: maxFaults, Recorder: rec,
			Messages: *messages, Units: *units, CostPerMessage: *cost,
		}
		counts := map[chaos.Kind]int{}
		for k, n := range mix {
			if *n > 0 {
				counts[k] = *n
			}
		}
		if len(counts) > 0 {
			h := *horizon
			if h <= 0 {
				h = 3 * time.Minute
			}
			o.Faults = chaos.Config{Horizon: h, Counts: counts}
		}
		return o
	}
	run := func(s int64, maxFaults int, rec vclock.RecorderConfig) *experiments.ChaosReport {
		r, err := experiments.Chaos(opts(s, maxFaults, rec))
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			os.Exit(2)
		}
		return r
	}

	if *fuzz > 0 {
		for s := *seed0; s < *seed0+int64(*fuzz); s++ {
			r := run(s, 0, vclock.RecorderConfig{})
			if *verbose {
				fmt.Printf("seed %-6d faults=%-3d hit=%-3d processed=%d/%d units=%d/%d ok=%v\n",
					s, len(r.Plan.Faults), hits(r), r.Processed, r.Produced,
					r.UnitsDone, r.UnitsFail, r.Ok())
			}
			if !r.Ok() {
				fmt.Printf("REPRODUCING SEED: %d\n", s)
				printViolations(r)
				fmt.Printf("replay: chaosreplay -seed %d%s -bisect\n", s, passthroughFlags())
				os.Exit(1)
			}
		}
		fmt.Printf("fuzz: %d seeds (%d..%d) clean\n", *fuzz, *seed0, *seed0+int64(*fuzz)-1)
		return
	}

	// Replay mode: run the seed twice and insist on bit-identity before
	// trusting anything else the run says.
	r := run(*seed, 0, vclock.RecorderConfig{})
	again := run(*seed, 0, vclock.RecorderConfig{})
	if r.StateHash != again.StateHash || r.Schedule.Hash != again.Schedule.Hash {
		fmt.Fprintf(os.Stderr, "seed %d is NOT deterministic: state %x/%x schedule %x/%x\n",
			*seed, r.StateHash, again.StateHash, r.Schedule.Hash, again.Schedule.Hash)
		os.Exit(2)
	}
	fmt.Printf("seed %d: faults=%d hit=%d processed=%d/%d units=%d done/%d failed rebalances=%d\n",
		*seed, len(r.Plan.Faults), hits(r), r.Processed, r.Produced,
		r.UnitsDone, r.UnitsFail, r.Rebalances)
	fmt.Printf("state hash %016x, schedule: %d decisions, hash %016x (replay verified)\n",
		r.StateHash, r.Schedule.Decisions, r.Schedule.Hash)
	st := r.Replication
	fmt.Printf("replication: %d appended, %d aliased, %d copied, %d segments born, %d refilled, %d copied on write, %d views copied across links, %d rounds, %d acked advances\n",
		st.Appends, st.Aliased, st.Copied, st.Born, st.Refilled, st.CopyOnWrite, st.Spanned, st.Rounds, st.AckedAdvances)
	fmt.Printf("executor: %d spawned, %d reused\n", r.Executor.Spawned, r.Executor.Reused)
	if *verbose {
		for _, a := range r.Injected {
			fmt.Printf("  %s\n", a.Note)
		}
	}
	if r.Ok() {
		fmt.Println("all invariants held")
		return
	}
	printViolations(r)
	if *bisect {
		doBisect(r, run)
	}
	os.Exit(1)
}

// doBisect shrinks the failing plan to its minimal prefix, then compares
// the last passing and first failing prefixes' recorded schedules: the
// checkpoint chain names the divergent block, a re-run with an exact
// capture window over that block names the first divergent decision.
func doBisect(r *experiments.ChaosReport, run func(int64, int, vclock.RecorderConfig) *experiments.ChaosReport) {
	total := len(r.Plan.Faults)
	prefix := func(n int) int { // MaxFaults encoding: 0 keeps all, negative keeps none
		if n == 0 {
			return -1
		}
		return n
	}
	minimal := chaos.BisectFaults(total, func(n int) bool {
		return !run(r.Seed, prefix(n), vclock.RecorderConfig{}).Ok()
	})
	if minimal > total {
		fmt.Println("bisect: no prefix fails in isolation (violation needs the full plan's interleaving)")
		return
	}
	fmt.Printf("bisect: minimal failing prefix is %d of %d faults; last fault in it: %s\n",
		minimal, total, r.Plan.Faults[minimal-1])
	pass := run(r.Seed, prefix(minimal-1), vclock.RecorderConfig{})
	fail := run(r.Seed, minimal, vclock.RecorderConfig{})
	from, to, ok := chaos.FirstDivergentBlock(pass.Schedule, fail.Schedule)
	if !ok {
		// No common checkpoint differs: the traces part ways after the last
		// checkpoint. Capture from there to the shorter trace's end.
		from = (min64(pass.Schedule.Decisions, fail.Schedule.Decisions) / pass.Schedule.Stride) * pass.Schedule.Stride
		to = from + pass.Schedule.Stride
	}
	win := vclock.RecorderConfig{WindowFrom: from + 1, WindowTo: to + 1}
	pw := run(r.Seed, prefix(minimal-1), win)
	fw := run(r.Seed, minimal, win)
	i := chaos.FirstDivergence(pw.Schedule.Window, fw.Schedule.Window)
	if i < 0 {
		fmt.Printf("bisect: schedules agree through decision block [%d,%d); divergence is past the recorded range\n", from, to)
		return
	}
	a, b := pw.Schedule.Window[i], fw.Schedule.Window[i]
	fmt.Printf("first divergent decision: #%d\n", a.N)
	fmt.Printf("  passing prefix: %-8s seq=%-6d at=%v note=%q\n", a.Kind, a.Seq, a.At.Sub(vclock.Epoch), a.Note)
	fmt.Printf("  failing prefix: %-8s seq=%-6d at=%v note=%q\n", b.Kind, b.Seq, b.At.Sub(vclock.Epoch), b.Note)
}

func hits(r *experiments.ChaosReport) int {
	n := 0
	for _, a := range r.Injected {
		if a.Hit {
			n++
		}
	}
	return n
}

func printViolations(r *experiments.ChaosReport) {
	fmt.Printf("INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Printf("  [%s] at %v: %s\n", v.Invariant, v.At, v.Detail)
	}
}

// passthrough names the workload flags a reproducing command repeats
// with their values; main adds the override-mix flags.
var passthrough = map[string]bool{"horizon": true, "messages": true, "units": true, "cost": true}

// passthroughFlags reprints the workload flags a reproducing command
// needs: the planted defects, the sizes and the override mix.
func passthroughFlags() string {
	s := ""
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "bug" || f.Name == "handoffbug" {
			s += " -" + f.Name
		} else if passthrough[f.Name] {
			s += fmt.Sprintf(" -%s %v", f.Name, f.Value)
		}
	})
	return s
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
