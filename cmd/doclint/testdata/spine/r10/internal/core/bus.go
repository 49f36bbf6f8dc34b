package core

import "spine/internal/streaming"

type localBus struct{}

func (localBus) Publish(string) error { return nil }

var _ streaming.Bus = localBus{}

var single = streaming.NewBroker
