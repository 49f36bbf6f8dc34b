// Package mdanalysis implements the task-parallel molecular-dynamics
// trajectory analysis of Paraskevakos et al. [53]: Hausdorff distance
// between trajectory pairs. The paper's §VI lesson "Optimize Application
// Algorithms" comes from exactly this study — the early-break Hausdorff
// variant (ablation E11) beats scaling out the naive O(n·m) one.
package mdanalysis

import (
	"math"

	"gopilot/internal/dist"
)

// Point3 is a 3-D coordinate.
type Point3 [3]float64

// Frame is one trajectory frame: positions of all atoms.
type Frame []Point3

// Trajectory is a sequence of frames.
type Trajectory []Frame

// GenerateTrajectory random-walks n atoms over f frames (step σ), starting
// from a compact blob — a synthetic stand-in for an MD trajectory with the
// same data shape.
func GenerateTrajectory(atoms, frames int, step float64, rng *dist.Stream) Trajectory {
	cur := make(Frame, atoms)
	for i := range cur {
		for d := 0; d < 3; d++ {
			cur[i][d] = rng.NormFloat64() * 5
		}
	}
	out := make(Trajectory, frames)
	for f := 0; f < frames; f++ {
		next := make(Frame, atoms)
		for i := range cur {
			for d := 0; d < 3; d++ {
				next[i][d] = cur[i][d] + rng.NormFloat64()*step
			}
		}
		out[f] = next
		cur = next
	}
	return out
}

func dist2(a, b Point3) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	dz := a[2] - b[2]
	return dx*dx + dy*dy + dz*dz
}

// HausdorffNaive computes the symmetric Hausdorff distance between two
// point sets with the textbook O(n·m) double scan.
//
// All the analysis kernels in this package (HausdorffNaive,
// HausdorffEarlyBreak, DistanceOps, RMSD, RMSDSeries, LeafletFinder) are
// pure CPU over read-only frames — no clock reads, no stream draws, no
// shared mutation — and therefore safe to run inside a parallel compute
// phase (vclock.Compute / core.TaskContext.Compute), which is how the E11
// ablation scales them across real cores. The Generate* helpers draw from
// a stream and are NOT pure: call them on the executor token.
func HausdorffNaive(a, b Frame) float64 {
	return math.Sqrt(math.Max(directedMax(a, b, false), directedMax(b, a, false)))
}

// HausdorffEarlyBreak computes the same value with the early-break
// optimization (Taha & Hanbury): the inner scan aborts as soon as a
// distance below the current outer maximum is found. Identical result,
// often an order of magnitude fewer distance evaluations.
func HausdorffEarlyBreak(a, b Frame) float64 {
	return math.Sqrt(math.Max(directedMax(a, b, true), directedMax(b, a, true)))
}

// directedMax returns max over x in xs of (min over y in ys of d²(x,y)).
func directedMax(xs, ys Frame, earlyBreak bool) float64 {
	cmax := 0.0
	for _, x := range xs {
		cmin := math.MaxFloat64
		for _, y := range ys {
			d := dist2(x, y)
			if d < cmin {
				cmin = d
			}
			if earlyBreak && cmin <= cmax {
				break
			}
		}
		if cmin > cmax && cmin != math.MaxFloat64 {
			cmax = cmin
		}
	}
	return cmax
}

// DistanceOps counts distance evaluations for both variants — the metric
// the ablation reports alongside runtime.
func DistanceOps(a, b Frame, earlyBreak bool) int {
	count := 0
	directed := func(xs, ys Frame) float64 {
		cmax := 0.0
		for _, x := range xs {
			cmin := math.MaxFloat64
			for _, y := range ys {
				count++
				d := dist2(x, y)
				if d < cmin {
					cmin = d
				}
				if earlyBreak && cmin <= cmax {
					break
				}
			}
			if cmin > cmax && cmin != math.MaxFloat64 {
				cmax = cmin
			}
		}
		return cmax
	}
	_ = math.Max(directed(a, b), directed(b, a))
	return count
}
