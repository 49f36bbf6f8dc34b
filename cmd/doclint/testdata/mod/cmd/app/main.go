// Command app is the planted module's traffic: it sets Config.Scale, calls
// Total and builds a Square, and touches nothing else under internal/.
package main

import (
	"fmt"

	"planted/internal/widget"
)

func main() {
	fmt.Println(widget.Total(widget.Config{Scale: 2}, []widget.Shape{widget.Square{Side: 3}}))
}
