package streaming

func (c *Cluster) failover(to int) {
	p := &c.parts[0]
	p.Members[0] = to
	p.Epoch++
}
