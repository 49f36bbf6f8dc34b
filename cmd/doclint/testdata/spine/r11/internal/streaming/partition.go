package streaming

import "sync"

type segments struct {
	mu   sync.RWMutex
	offs []int64
}
