// Package mapreduce is the fixture's kernel host: pooled scratch is taken
// on-token before Compute and released on-token after the rejoin.
package mapreduce

import (
	"context"
	"sync"

	"spine/internal/vclock"
)

type scratch struct{ words []string }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) release() {
	s.words = s.words[:0]
	scratchPool.Put(s)
}

// RunMapTask maps words in a parallel compute phase.
func RunMapTask(ctx context.Context, clock vclock.Clock, words []string) int {
	sc := getScratch()
	n := 0
	clock.Compute(ctx, func() { n = mapKernel(words, getScratch()) })
	sc.release()
	return n
}

func mapKernel(words []string, sc *scratch) int {
	sc.words = append(sc.words, words...)
	return len(sc.words)
}
