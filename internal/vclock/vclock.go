// Package vclock provides the virtual-time substrate that lets gopilot
// reproduce testbed-scale experiments (hours of queue waits, minutes-long
// tasks) in milliseconds of wall time while preserving every ratio the
// paper's figures depend on.
//
// All *modeled* latencies in the simulated infrastructures (batch queue
// waits, VM boot times, data transfers, task service times) are expressed in
// modeled time and slept through the one clock there is: Virtual, a
// conservative virtual-time executor (virtual.go) that advances to the
// earliest sleeper deadline whenever all registered goroutines are
// quiescent — modeled sleeps cost zero wall time and same-seed runs are
// bit-reproducible. Pure CPU kernels escape its single-runner
// serialization through the deterministic parallel compute phase
// (compute.go): real cores, same schedule. Every exhibit, benchmark, test
// and example runs on it; there is no wall-time mode to select.
//
// Experiment reports always quote modeled durations, so results read like
// the paper's (seconds and minutes, not microseconds).
package vclock

import "time"

// Clock is the type components declare their clock as. It names the one
// implementation, so a nil Clock is a nil *Virtual.
type Clock = *Virtual

// Epoch is the fixed modeled epoch every clock starts at by convention, so
// timestamps agree across runs. It is the arXiv v2 date of the paper.
var Epoch = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)
