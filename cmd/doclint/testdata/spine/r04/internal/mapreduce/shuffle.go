package mapreduce

import (
	"context"

	"spine/internal/dist"
	"spine/internal/vclock"
)

// The closure is one line; the draw is in the helper it calls.
func shuffled(ctx context.Context, clock vclock.Clock, s *dist.Stream, words []string) {
	clock.Compute(ctx, func() { permute(s, words) })
}

func permute(s *dist.Stream, words []string) {
	for i := len(words) - 1; i > 0; i-- {
		j := int(s.Uint64() % uint64(i+1))
		words[i], words[j] = words[j], words[i]
	}
}
