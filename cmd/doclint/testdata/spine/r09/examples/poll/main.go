// Command poll is a planted example: it sleeps on the host's clock, a
// second clock beside the virtual one.
package main

import "time"

func main() { time.Sleep(time.Millisecond) }
