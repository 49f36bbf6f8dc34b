// Package genomics implements the genome-sequencing case study of
// Pilot-Data [66]: read alignment against a reference, with reads and
// reference managed as data-units. The aligner is a real Smith-Waterman
// local-alignment implementation (affine-free, linear gap penalty) —
// computationally faithful to the BWA-class workloads the paper ran,
// scaled down. Chunks of reads are one compute-unit each; the reference
// is a large shared data-unit whose staging cost data-aware scheduling
// avoids (experiment E4).
package genomics

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dist"
	"gopilot/internal/infra"
)

var bases = []byte("ACGT")

// GenerateReference builds a random reference genome of length n,
// drawing from the generator's stream on the experiment's seeding spine.
func GenerateReference(n int, s *dist.Stream) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[s.Intn(4)]
	}
	return string(b)
}

// SampleReads draws reads of the given length from the reference, mutating
// each base with the given rate (substitutions only), as a sequencer would.
func SampleReads(ref string, count, length int, mutationRate float64, s *dist.Stream) []string {
	out := make([]string, count)
	for i := range out {
		start := s.Intn(len(ref) - length)
		read := []byte(ref[start : start+length])
		for j := range read {
			if s.Bernoulli(mutationRate) {
				read[j] = bases[s.Intn(4)]
			}
		}
		out[i] = string(read)
	}
	return out
}

// SWScore computes the Smith-Waterman local alignment score between a read
// and a reference window with match +2, mismatch -1, gap -2 — the real
// dynamic program, O(len(a)·len(b)).
func SWScore(a, b string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] == b[j-1] {
				sub += 2
			} else {
				sub--
			}
			v := sub
			if d := prev[j] - 2; d > v {
				v = d
			}
			if d := curr[j-1] - 2; d > v {
				v = d
			}
			if v < 0 {
				v = 0
			}
			curr[j] = v
			if v > best {
				best = v
			}
		}
		prev, curr = curr, prev
	}
	return best
}

// AlignRead scans the reference in overlapping windows and returns the
// best local-alignment score and its window offset. Window size is twice
// the read length with 50% overlap — a seed-free, brute-force aligner
// whose compute shape matches the DP-heavy inner loops of real tools.
func AlignRead(read, ref string) (best int, offset int) {
	w := 2 * len(read)
	if w > len(ref) {
		w = len(ref)
	}
	step := w / 2
	if step == 0 {
		step = 1
	}
	for off := 0; off < len(ref); off += step {
		end := off + w
		if end > len(ref) {
			end = len(ref)
		}
		if s := SWScore(read, ref[off:end]); s > best {
			best, offset = s, off
		}
		if end == len(ref) {
			break
		}
	}
	return best, offset
}

// Config describes a distributed alignment run.
type Config struct {
	// ReferenceID is the data-unit holding the reference genome.
	ReferenceID string
	// ChunkIDs are the read-chunk data-units, one one-core compute-unit
	// each.
	ChunkIDs []string
	// MinScore is the alignment acceptance threshold.
	MinScore int
}

// Result reports a completed alignment run.
type Result struct {
	// TotalReads and AlignedReads count reads processed and accepted.
	TotalReads, AlignedReads int
	// Elapsed is the modeled end-to-end runtime.
	Elapsed time.Duration
	// ChunkTimes records per-chunk modeled runtimes.
	ChunkTimes []time.Duration
}

// StageInputs uploads the reference and read chunks into Pilot-Data.
// refLogicalSize inflates the reference's modeled size (real references
// are gigabytes; content stays small).
func StageInputs(ctx context.Context, ds *data.Service, site infra.Site, ref string, chunks [][]string, refLogicalSize int64) (refID string, chunkIDs []string, err error) {
	refID = "genome-ref"
	if refLogicalSize <= 0 {
		refLogicalSize = int64(len(ref))
	}
	if err := ds.Put(ctx, data.Unit{ID: refID, Content: []byte(ref), LogicalSize: refLogicalSize, Site: site}); err != nil {
		return "", nil, err
	}
	for i, chunk := range chunks {
		id := fmt.Sprintf("reads-chunk-%d", i)
		content := strings.Join(chunk, "\n")
		if err := ds.Put(ctx, data.Unit{ID: id, Content: []byte(content), Site: site}); err != nil {
			return "", nil, err
		}
		chunkIDs = append(chunkIDs, id)
	}
	return refID, chunkIDs, nil
}

// Run aligns every chunk against the reference on mgr's pilots.
func Run(ctx context.Context, mgr *core.Manager, cfg Config) (*Result, error) {
	if mgr.Data() == nil {
		return nil, errors.New("genomics: manager has no data service")
	}
	if cfg.ReferenceID == "" || len(cfg.ChunkIDs) == 0 {
		return nil, errors.New("genomics: reference and chunks required")
	}
	clock := mgr.Clock()
	start := clock.Now()

	var mu sync.Mutex
	res := &Result{}
	units := make([]*core.ComputeUnit, 0, len(cfg.ChunkIDs))
	for _, chunkID := range cfg.ChunkIDs {
		chunkID := chunkID
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name:      "align-" + chunkID,
			Cores:     1,
			InputData: []string{cfg.ReferenceID, chunkID},
			Run: func(ctx context.Context, tc core.TaskContext) error {
				t0 := clock.Now()
				refBytes, err := tc.Data.Read(ctx, cfg.ReferenceID, tc.Site)
				if err != nil {
					return fmt.Errorf("read reference: %w", err)
				}
				chunkBytes, err := tc.Data.Read(ctx, chunkID, tc.Site)
				if err != nil {
					return fmt.Errorf("read chunk: %w", err)
				}
				ref := string(refBytes)
				total, aligned := 0, 0
				for _, read := range strings.Split(string(chunkBytes), "\n") {
					if read == "" {
						continue
					}
					if err := ctx.Err(); err != nil {
						return err
					}
					total++
					if score, _ := AlignRead(read, ref); score >= cfg.MinScore {
						aligned++
					}
				}
				mu.Lock()
				res.TotalReads += total
				res.AlignedReads += aligned
				res.ChunkTimes = append(res.ChunkTimes, clock.Now().Sub(t0))
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	for _, u := range units {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			return nil, fmt.Errorf("genomics: unit %s %v: %w", u.ID(), s, err)
		}
	}
	res.Elapsed = clock.Now().Sub(start)
	return res, nil
}

// Chunk splits reads into n roughly equal chunks.
func Chunk(reads []string, n int) [][]string {
	if n <= 0 {
		n = 1
	}
	out := make([][]string, n)
	for i := range out {
		lo := i * len(reads) / n
		hi := (i + 1) * len(reads) / n
		out[i] = reads[lo:hi]
	}
	return out
}
