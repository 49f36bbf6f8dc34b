package streaming

import "sync"

var fetchMu sync.Mutex
