// Package mapreduce is the fixture's kernel host: scratch is taken from its
// free list on-token before Compute and released on-token after the rejoin.
package mapreduce

import (
	"context"
	"sync"

	"spine/internal/vclock"
)

type scratch struct{ words []string }

var scratchFree struct {
	sync.Mutex
	list []*scratch
}

func getScratch() *scratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if list := scratchFree.list; len(list) > 0 {
		scratchFree.list = list[:len(list)-1]
		return list[len(list)-1]
	}
	return new(scratch)
}

func (s *scratch) release() {
	s.words = s.words[:0]
	scratchFree.Lock()
	scratchFree.list = append(scratchFree.list, s)
	scratchFree.Unlock()
}

// RunMapTask maps words in a parallel compute phase.
func RunMapTask(ctx context.Context, clock vclock.Clock, words []string) int {
	sc := getScratch()
	n := 0
	clock.Compute(ctx, func() { n = mapKernel(words, sc) })
	sc.release()
	return n
}

func mapKernel(words []string, sc *scratch) int {
	sc.words = append(sc.words, words...)
	return len(sc.words)
}
