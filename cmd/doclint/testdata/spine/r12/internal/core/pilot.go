package core

import "sync"

type pilot struct {
	mu    sync.Mutex
	cores int
}
