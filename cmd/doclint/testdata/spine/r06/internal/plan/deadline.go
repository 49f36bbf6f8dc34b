package plan

import "spine/internal/vclock"

func deadline(c vclock.Clock) int64 { return c.Now() + 5 }
