package vclock

func (r *parker) awaitOrCancel() bool {
	select {
	case <-r.g:
		return true
	case <-r.done:
		return false
	}
}
