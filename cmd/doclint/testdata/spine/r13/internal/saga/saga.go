// Package saga is planted: it adapts a backend, a second job state machine
// over the one the backend keeps.
package saga

import "spine/internal/infra/hpc"

var start = hpc.New
