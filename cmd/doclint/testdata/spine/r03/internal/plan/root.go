package plan

import "spine/internal/dist"

var root = dist.NewStream(1)
