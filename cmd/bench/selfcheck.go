package main

import (
	"fmt"
	"io"
	"math"
)

// worsening is how far b is worse than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the acceptance run, and the tool later issues use for
// before/after: it runs the chosen workloads as two independent sets, A
// then B, each run in a process of its own, compares every end-to-end
// metric of B against A under the metric's bound, and requires every
// sim-clock metric and op count to be equal. The per-run tables above the
// comparison state median, min, max and n of each side's repetitions.
func selfCheck(out io.Writer, chosen []*workloadDef, seed int64, seconds float64, smoke bool) error {
	type pair struct{ a, b *resultLine }
	pairs := make([]pair, len(chosen))
	for side := 0; side < 2; side++ {
		for i, w := range chosen {
			fmt.Fprintf(out, "--- set %c: %s ---\n", 'A'+side, w.Name)
			line, err := runChild(out, w.Name, seed, seconds, "0", smoke)
			if err != nil {
				return err
			}
			if side == 0 {
				pairs[i].a = line
			} else {
				pairs[i].b = line
			}
		}
	}
	fmt.Fprintf(out, "\nselfcheck: set B against set A, same code, seed %d\n", seed)
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	breaches := 0
	for i, w := range chosen {
		a, b := pairs[i].a, pairs[i].b
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := worsening(m, va, vb)
			verdict := "ok"
			switch {
			case m.Clock != clockHost && va != vb:
				verdict = "BREACH (sim metric differs at one seed)"
				breaches++
			case worse > m.Bound && math.Abs(vb-va) <= m.Floor:
				verdict = fmt.Sprintf("ok (under the %g %s floor)", m.Floor, m.Unit)
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-20s %-20s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", w.Name, m.Name, va, vb, worse*100, m.Bound*100, verdict)
		}
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			fmt.Fprintf(out, "%-20s ops attempted/failed %d/%d vs %d/%d  BREACH (counts differ at one seed)\n",
				w.Name, a.Attempted, a.Failed, b.Attempted, b.Failed)
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breach(es)", breaches)
	}
	fmt.Fprintln(out, "selfcheck: ok")
	return nil
}
