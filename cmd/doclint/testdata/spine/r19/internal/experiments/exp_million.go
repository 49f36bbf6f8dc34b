package experiments

import "spine/internal/streaming"

var million = streaming.NewCluster(streaming.ClusterConfig{
	OnAcked: func(string, int, int64, int64) {},
})
