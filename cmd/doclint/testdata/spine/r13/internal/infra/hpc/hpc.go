// Package hpc is a planted backend: its job carries a lock of its own, and
// with the seven beside it the backends declare eight.
package hpc

import "sync"

type job struct {
	mu    sync.Mutex
	state int
}

var (
	l1 sync.Mutex
	l2 sync.Mutex
	l3 sync.Mutex
	l4 sync.Mutex
	l5 sync.Mutex
	l6 sync.Mutex
	l7 sync.RWMutex
)

// New starts the service.
func New() {}
