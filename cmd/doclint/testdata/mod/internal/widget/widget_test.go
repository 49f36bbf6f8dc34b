package widget

import "testing"

func TestOrphan(t *testing.T) {
	if Orphan() != 42 {
		t.Fatal("its own test does not keep a name alive")
	}
}
