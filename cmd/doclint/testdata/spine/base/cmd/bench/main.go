// Command bench is the fixture's frozen harness: it alone may name the
// Broker alias, wrap the Bus, and set a hook to a func literal.
package main

import "spine/internal/streaming"

type tracedBus struct{ streaming.Bus }

func main() {
	b := streaming.NewBroker(streaming.BrokerConfig{Name: "bench"})
	_ = streaming.Bus(tracedBus{b}).Publish("t")
	_ = streaming.ClusterConfig{OnCommit: func(string, int, int64, int64) {}}
}
