package plan

import "math/rand"

func jitter() float64 { return rand.Float64() }
