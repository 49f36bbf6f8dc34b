package streaming

func (c *Cluster) subscribers(byTopic map[string]int) (n int) {
	for _, k := range byTopic {
		n += k
	}
	return n
}
