package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestAllowedStaysShort holds the allow-list to its rule: at most two rows,
// and none kept for a ROADMAP item, which brings its code back with a caller.
func TestAllowedStaysShort(t *testing.T) {
	if len(allowed) > 2 {
		t.Errorf("allowed has %d rows, want at most 2", len(allowed))
	}
	for name, reason := range allowed {
		if strings.Contains(reason, "ROADMAP") || strings.Contains(reason, "item ") {
			t.Errorf("allowed[%q] is kept for a ROADMAP item: %q", name, reason)
		}
	}
}

// TestSpineRules lints testdata/spine/base, which every rule passes, and
// then base with each rule's fixture laid over it: a fixture must draw
// exactly its count of findings, every one from its own rule.
func TestSpineRules(t *testing.T) {
	for _, c := range []struct {
		fixture    string
		rule, want int
	}{
		{"base", 0, 0},
		{"r01", 1, 1}, {"r02", 2, 1}, {"r03", 3, 1}, {"r04", 4, 1}, {"r05", 5, 1}, {"r06", 6, 1},
		{"r08", 8, 2}, {"r09", 9, 2}, {"r10", 10, 3}, {"r11", 11, 2}, {"r12", 12, 2}, {"r13", 13, 3},
		{"r14", 14, 1}, {"r15", 15, 2}, {"r16", 16, 1}, {"r17", 17, 2}, {"r18", 18, 2}, {"r18b", 18, 1},
		{"r19", 19, 1},
	} {
		t.Run(c.fixture, func(t *testing.T) {
			root := t.TempDir()
			for _, layer := range []string{"base", c.fixture} {
				if err := copyTree(filepath.Join("testdata/spine", layer), root); err != nil {
					t.Fatal(err)
				}
			}
			got, _, err := lint(root)
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("doclint: rule %d: ", c.rule)
			if len(got) != c.want || slices.ContainsFunc(got, func(f string) bool { return !strings.HasPrefix(f, prefix) }) {
				t.Fatalf("findings:\n%s\nwant %d, each from rule %d", strings.Join(got, "\n"), c.want, c.rule)
			}
		})
	}
}

// copyTree copies the files under src to the same paths under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		return err
	})
}
