// Package dist is the fixture's seeding spine: a stream root, a draw, and
// the integer-seed constructor that rule 2 keeps inside this package.
package dist

// Stream is a labeled random stream.
type Stream struct{ state uint64 }

// NewStream roots a stream at seed.
func NewStream(seed int64) *Stream { return &Stream{uint64(seed)} }

// Uint64 draws.
func (s *Stream) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

// NewNormal is the legacy integer-seed constructor.
func NewNormal(mean float64, seed int64) float64 { return mean + float64(seed%2) }
