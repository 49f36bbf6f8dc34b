// Package widget is doclint's planted module: one callerless export, one
// config field nobody sets, one method reached only through an interface.
package widget

// Config configures Total: cmd/app sets Scale; Offset is only defaulted.
type Config struct{ Scale, Offset float64 }

// Shape is what Total sums over.
type Shape interface{ Area() float64 }

// Square is a Shape; nobody calls its Area except through the interface.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Total sums the areas, scaled and offset.
func Total(cfg Config, shapes []Shape) float64 {
	if cfg.Offset == 0 {
		cfg.Offset = 1
	}
	sum := cfg.Offset
	for _, s := range shapes {
		sum += cfg.Scale * s.Area()
	}
	return sum
}

// Orphan is the planted callerless export: only widget_test.go calls it.
func Orphan() int { return 42 }
