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
// that is not a participant of an idle world, panics and names the fix.
func TestUnregisteredWaitPanics(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		wait func(v *Virtual)
	}{
		{"Sleep", func(v *Virtual) { v.Sleep(ctx, time.Second) }},
		{"Notifier.Wait", func(v *Virtual) { NewNotifier(v).Wait(ctx) }},
		{"Event.Wait", func(v *Virtual) { NewEvent(v).Wait(ctx) }},
		{"Group.Wait", func(v *Virtual) {
			g := NewGroup(v)
			g.Add(1)
			g.Wait()
		}},
		{"Sem.Acquire contended", func(v *Virtual) {
			s := NewSem(v, 1)
			if !s.Acquire(ctx) { // free slot: no park, no participant needed
				t.Error("uncontended Acquire failed")
			}
			s.Acquire(ctx)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "use Go or Adopt") {
					t.Errorf("recovered %q, want a panic naming \"use Go or Adopt\"", msg)
				}
			}()
			tc.wait(NewVirtual(Epoch))
		})
	}
}
