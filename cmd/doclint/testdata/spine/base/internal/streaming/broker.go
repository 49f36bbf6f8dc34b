package streaming

// BrokerConfig is the slice of ClusterConfig the frozen harness sets.
type BrokerConfig struct{ Name string }

// Broker is the residue the frozen harness names: a one-shard Cluster.
type Broker struct{ *Cluster }

// NewBroker maps cfg onto a cluster.
func NewBroker(cfg BrokerConfig) *Broker { return &Broker{NewCluster(ClusterConfig{})} }
