package core

import "spine/internal/dist"

func startup() float64 { return dist.NewNormal(30, 7) }
