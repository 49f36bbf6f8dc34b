// Package core is the fixture's pilot manager: Manager.mu is its one lock,
// and a unit is found by its ordinal, not by a map keyed by its ID.
package core

import "sync"

// ComputeUnit is a unit of work.
type ComputeUnit struct{ Ordinal int }

// Manager holds every unit in ordinal order.
type Manager struct {
	mu    sync.Mutex
	units []*ComputeUnit
}

// Unit is the unit with ordinal n.
func (m *Manager) Unit(n int) *ComputeUnit {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.units[n-1]
}
