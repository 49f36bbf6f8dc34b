package streaming

import "sync"

// OffsetStore is the durable consumer-offset state of a streaming
// deployment: a small KV snapshot mapping (group, topic, partition) to
// the next offset the group would consume, in the style of the
// persys-scheduler's state-in-a-KV-store reconcile loop — desired state
// lives outside the components acting on it, so a restarted component
// reconverges by reading it back. Groups save after every broker commit
// and load at start, which is what makes a group restart resume with
// zero duplicates and zero gaps; the Cluster watches saves and trims log
// segments below the low-watermark of all persisted offsets, which is
// what bounds resident memory under infinite streams.
//
// Keys are registered once and then updated in place; LowWatermark
// walks the registration-order slice, never a map, so every read is
// deterministic (seed-audit rule 5).
type OffsetStore struct {
	mu      sync.Mutex
	entries []*offsetEntry // registration order: deterministic iteration
	byKey   map[offsetKey]*offsetEntry
	subs    []func(group, topic string, partition int)
}

type offsetKey struct {
	group, topic string
	partition    int
}

type offsetEntry struct {
	offsetKey
	next int64
}

// NewOffsetStore creates an empty store.
func NewOffsetStore() *OffsetStore {
	return &OffsetStore{byKey: make(map[offsetKey]*offsetEntry)}
}

// OnSave registers a callback invoked (outside the store's lock, on the
// saver's goroutine) after every applied save — the hook the Cluster
// uses to evaluate retention at exactly the persist instants.
func (s *OffsetStore) OnSave(fn func(group, topic string, partition int)) {
	s.mu.Lock()
	s.subs = append(s.subs, fn)
	s.mu.Unlock()
}

// Save persists a group's cursor for one partition, monotonically: a
// save at or below the stored value only registers the key (a fresh
// group saves 0 to declare interest, which floors the low-watermark
// until it makes progress). Saves of an already-current value do not
// re-notify.
func (s *OffsetStore) Save(group, topic string, partition int, next int64) {
	key := offsetKey{group: group, topic: topic, partition: partition}
	s.mu.Lock()
	e, ok := s.byKey[key]
	if !ok {
		e = &offsetEntry{offsetKey: key, next: next}
		s.byKey[key] = e
		s.entries = append(s.entries, e)
	} else if next > e.next {
		e.next = next
	} else {
		s.mu.Unlock()
		return
	}
	subs := s.subs
	s.mu.Unlock()
	for _, fn := range subs {
		fn(group, topic, partition)
	}
}

// Load returns a group's persisted cursor for one partition.
func (s *OffsetStore) Load(group, topic string, partition int) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byKey[offsetKey{group: group, topic: topic, partition: partition}]
	if !ok {
		return 0, false
	}
	return e.next, true
}

// LowWatermark returns the minimum persisted cursor across every group
// registered on (topic, partition) — the retention floor: offsets below
// it are committed by all known consumers and safe to trim. ok is false
// while no group has registered, in which case nothing may be trimmed.
func (s *OffsetStore) LowWatermark(topic string, partition int) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lw int64
	found := false
	for _, e := range s.entries {
		if e.topic != topic || e.partition != partition {
			continue
		}
		if !found || e.next < lw {
			lw = e.next
			found = true
		}
	}
	return lw, found
}
