package main

import (
	"slices"
	"testing"
)

// TestPlantedModule lints testdata/mod, which plants one callerless export
// and one never-set config field beside an interface-satisfying method and
// an allow-listed name: exactly the first two are findings.
func TestPlantedModule(t *testing.T) {
	got, _, err := lint("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"doclint: widget.Config.Offset: never set by a caller",
		"doclint: widget.Orphan: no caller outside its own tests",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
}
