// Package experiments is the fixture's exhibit table: each exhibit's seed
// is written once, here, and E11's host-time column reads the wall clock.
package experiments

// TestbedConfig configures a testbed.
type TestbedConfig struct{ Seed int64 }

// Exhibits lists every exhibit with its seed.
var Exhibits = []struct {
	Seed int64
	Run  func(seed int64) uint64
}{{Seed: 7, Run: hostTime}}
