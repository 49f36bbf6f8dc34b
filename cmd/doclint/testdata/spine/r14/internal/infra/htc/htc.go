// Package htc is a planted backend: New may mint the service-lifetime
// context, but a job's context must be the clock's cancel scope.
package htc

import "context"

// Pool is the service.
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// New starts the service under its lifetime context.
func New() *Pool {
	ctx, cancel := context.WithCancel(context.Background())
	return &Pool{ctx, cancel}
}

func (p *Pool) submit() *Pool {
	ctx, cancel := context.WithCancel(p.ctx)
	return &Pool{ctx, cancel}
}

func (p *Pool) restart() *Pool { return New() }
