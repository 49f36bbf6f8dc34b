package infra

import (
	"errors"
	"sync/atomic"
)

// ErrBackendDown is the sentinel wrapped by backend entry points while an
// injected outage window is open (chaos engineering, internal/chaos). Like
// ErrBackendClosed it gives heterogeneous dispatchers a single test:
// errors.Is(err, infra.ErrBackendDown).
var ErrBackendDown = errors.New("backend unavailable (injected outage)")

// Faults is the per-backend fault switchboard. Every simulated backend
// owns one and consults it at its submission entry point; the chaos engine
// (internal/chaos) toggles it at exact virtual instants. The zero value is
// healthy, and a nil *Faults is always healthy, so components can consult
// one unconditionally.
//
// Faults carries no clock: outage windows are opened and closed by the
// chaos engine's own scheduled participant, which keeps this type free of
// time arithmetic and therefore trivially deterministic.
type Faults struct {
	down atomic.Bool
}

// SetDown opens (true) or closes (false) an outage window.
func (f *Faults) SetDown(down bool) {
	if f != nil {
		f.down.Store(down)
	}
}

// Down reports whether an outage window is open. Nil-safe.
func (f *Faults) Down() bool { return f != nil && f.down.Load() }

// Check returns ErrBackendDown while an outage window is open, nil
// otherwise. Nil-safe.
func (f *Faults) Check() error {
	if f.Down() {
		return ErrBackendDown
	}
	return nil
}
