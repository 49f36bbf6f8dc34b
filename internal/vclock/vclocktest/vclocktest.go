// Package vclocktest holds the one test-clock helper every suite shares,
// so a unit test drives the same virtual executor the exhibits run on. It
// lives outside package vclock to keep "testing" out of product imports.
package vclocktest

import (
	"testing"

	"gopilot/internal/vclock"
)

// Adopted returns a fresh virtual clock with the test goroutine adopted as
// its driver until the test, and every cleanup registered after this call,
// has run.
func Adopted(t testing.TB) *vclock.Virtual {
	v := vclock.NewVirtual(vclock.Epoch)
	v.Adopt()
	t.Cleanup(v.Leave)
	return v
}
