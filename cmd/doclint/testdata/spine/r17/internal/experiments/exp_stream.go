package experiments

import "spine/internal/dist"

func secondTestbed() uint64 {
	cfg := TestbedConfig{Seed: 5}
	return dist.NewStream(16).Uint64() + uint64(cfg.Seed)
}
