package experiments

import (
	"time"

	"spine/internal/dist"
)

func hostTime(seed int64) uint64 {
	wallStart := time.Now()
	cfg := TestbedConfig{Seed: seed + 1}
	draw := dist.NewStream(cfg.Seed).Uint64()
	return draw + uint64(time.Since(wallStart).Microseconds())
}
