package chaos

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestKindTable checks the fault table itself: one complete row per
// kind, unique names and flags, and a safe String for a kind out of
// range.
func TestKindTable(t *testing.T) {
	// The names are seeding-spine labels: a fault draws from
	// "chaos"/<name>/<ordinal>, so renaming one re-deals every draw of its
	// kind (and every chaos seed's plan). Change this list only on purpose.
	wantNames := []string{
		"backend-outage", "pilot-crash", "evict-storm", "partition-stall",
		"commit-skew", "worker-churn", "shard-loss", "shard-link",
		"replica-lag", "torn-replication", "crash-mid-catchup",
	}
	// cmd/chaosreplay's override-mix flags, which Makefile and CI pass.
	wantFlags := map[string]Kind{"churn": WorkerChurn, "shardloss": ShardLoss, "replicalag": ReplicaLag, "tornrepl": TornReplication}
	var names []string
	flags := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		r := kinds[k]
		if r.name == "" || r.arm == nil || r.weight <= 0 {
			t.Fatalf("kind %d: incomplete row (name %q, arm set %v, weight %d)", int(k), r.name, r.arm != nil, r.weight)
		}
		if k.String() != r.name {
			t.Fatalf("kind %d prints %q, want its row's name %q", int(k), k.String(), r.name)
		}
		names = append(names, r.name)
		if r.flag == "" {
			continue
		}
		if other, dup := flags[r.flag]; dup {
			t.Fatalf("flag -%s on both %v and %v", r.flag, other, k)
		}
		flags[r.flag] = k
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("kind names %q, want %q", names, wantNames)
	}
	if !reflect.DeepEqual(flags, wantFlags) {
		t.Fatalf("override-mix flags %v, want %v", flags, wantFlags)
	}
	for _, k := range []Kind{-1, NumKinds, NumKinds + 3} {
		want := fmt.Sprintf("Kind(%d)", int(k))
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
		if k.Weight() != 0 || k.Flag() != "" {
			t.Fatalf("%v: weight %d flag %q, want neither", k, k.Weight(), k.Flag())
		}
		if got := (Fault{Kind: k, Until: 1, Delay: 1}).String(); got != want+"/0 @0s target=0" {
			t.Fatalf("Fault of %v prints %q", k, got)
		}
	}
}

// TestDesignListsEveryKind holds DESIGN.md's fault taxonomy to the
// table: its first column names exactly the kinds, in Kind order, each
// as the constant whose label it is (backend-outage is BackendOutage).
func TestDesignListsEveryKind(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Fault taxonomy\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Fault taxonomy" section`)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			listed = append(listed, name)
		}
	}
	var want []string
	for k := Kind(0); k < NumKinds; k++ {
		var name string
		for _, word := range strings.Split(k.String(), "-") {
			name += strings.ToUpper(word[:1]) + word[1:]
		}
		want = append(want, name)
	}
	if !reflect.DeepEqual(listed, want) {
		t.Fatalf("DESIGN.md fault taxonomy lists %q, want the fault table's kinds %q", listed, want)
	}
}
