package plan

import "time"

func retry(fn func() bool) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for !fn() {
		<-t.C
	}
}
