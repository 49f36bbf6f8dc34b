package vclock

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestUnregisteredWaitPanics pins the contract that replaced the silent
// plain-channel fallback: a wait that would park, issued by a goroutine
// that is not a participant of an idle world, panics and names the fix —
// and panics *before* it registers anything. A registration that outlived
// the recovered panic would be claimed by the primitive's next signal,
// which would send the token down a channel nobody reads and hold it for
// good; a primitive mutex left locked would hang the signal itself. So
// after each recovered panic the primitive is signaled and the same clock
// must still admit (Adopt) and release (Leave) a participant.
func TestUnregisteredWaitPanics(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		make func(v *Virtual) (wait, signal func())
	}{
		{"Sleep", func(v *Virtual) (func(), func()) {
			return func() { v.Sleep(ctx, time.Second) }, func() {}
		}},
		{"Notifier.Wait", func(v *Virtual) (func(), func()) {
			n := NewNotifier(v)
			return func() { n.Wait(ctx) }, n.Set
		}},
		{"Event.Wait", func(v *Virtual) (func(), func()) {
			e := NewEvent(v)
			return func() { e.Wait(ctx) }, e.Fire
		}},
		{"Group.Wait", func(v *Virtual) (func(), func()) {
			g := NewGroup(v)
			g.Add(1)
			return g.Wait, g.Done
		}},
		{"Sem.Acquire contended", func(v *Virtual) (func(), func()) {
			s := NewSem(v, 1)
			return func() {
				if !s.Acquire(ctx) { // free slot: no park, no participant needed
					t.Error("uncontended Acquire failed")
				}
				s.Acquire(ctx)
			}, s.Release
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVirtual(Epoch)
			wait, signal := tc.make(v)
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "use Go or Adopt") {
						t.Errorf("recovered %q, want a panic naming \"use Go or Adopt\"", msg)
					}
				}()
				wait()
			}()
			alive := make(chan struct{})
			go func() {
				defer close(alive)
				signal()
				v.Adopt()
				v.Leave()
			}()
			select {
			case <-alive:
			case <-time.After(10 * time.Second):
				t.Fatal("the recovered wait wedged the world: signal + Adopt/Leave did not complete")
			}
		})
	}
}
