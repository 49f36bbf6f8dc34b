package streaming

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
)

// The segment lifecycle (DESIGN.md "Segment lifecycle") under test: the
// partition log against a naive slice model with every view retained, an
// allocation budget for the replicated data plane, and the follower
// append benchmark.

// heldView is one view the driver kept: the slice the log handed out and
// what it read at that instant.
type heldView struct {
	got  []Message
	want []wantMsg
}

type wantMsg struct {
	offset    int64
	value     string
	published time.Time
}

// logModel is the naive reference: the retained log as one plain slice.
type logModel struct {
	first     int64 // oldest retained offset
	committed int64
	base      int64     // payload bytes below first since the last reset
	msgs      []Message // offsets [first, first+len(msgs))
}

func (m *logModel) end() int64 { return m.first + int64(len(m.msgs)) }

func payloadBytes(msgs []Message) int64 {
	var n int64
	for i := range msgs {
		n += int64(len(msgs[i].Key) + len(msgs[i].Value))
	}
	return n
}

// driveLogAgainstModel interprets script as (op, arg) byte pairs over one
// bare Log with 4-message segments — no broker, no topic map, no clock —
// leader appends (Append), follower appends (AppendReplicated), views,
// commits, commit-mark placements, trims, suffix truncations and resets,
// in any order: a log plays both roles over its life — and checks the log
// against the model after every step. Every message carries a payload
// unique to its offset and write, and every view ever returned is kept and
// re-read at the end. Truncations stay at or above the highest offset ever
// viewed, which is the cluster's protocol (views only below the
// acknowledged watermark, truncation only at or above it). Returns how
// many segments were refilled.
func driveLogAgainstModel(script []byte) (refills int, err error) {
	const segSize = 4
	l := &Log{segSize: segSize}
	spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
	var (
		m       logModel
		held    []heldView
		viewHi  int64 // highest offset any view has reached (exclusive)
		writes  int
		live    = map[*segment]bool{} // in l.segs after the previous step
		retired = map[*segment]bool{} // left l.segs, not (yet) refilled
		viewed  = map[*segment]bool{} // a view of it has left the log
	)
	mint := func(offset int64) Message {
		writes++
		return Message{Topic: "t", Offset: offset,
			Value:     []byte(fmt.Sprintf("o%d.w%d.%s", offset, writes, "xxxx"[:offset%5])),
			Published: vclock.Epoch.Add(time.Duration(writes) * time.Millisecond)}
	}
	check := func(step int, op string) error {
		fail := func(format string, a ...any) error {
			return fmt.Errorf("step %d (%s): %s", step, op, fmt.Sprintf(format, a...))
		}
		first, end, committed, epochs := l.Snapshot(nil)
		if first != m.first || end != m.end() || committed != m.committed {
			return fail("Snapshot first/end/committed %d/%d/%d, model %d/%d/%d",
				first, end, committed, m.first, m.end(), m.committed)
		}
		// Every write here is under epoch 0: the chain is one span from the
		// oldest offset this incarnation of the log ever held, or empty.
		if len(epochs) > 1 || (len(epochs) == 1 && (epochs[0].Epoch != 0 || epochs[0].Start > first)) ||
			(len(epochs) == 0 && end > first) {
			return fail("Snapshot epochs %v over [%d, %d)", epochs, first, end)
		}
		var flat []Message
		now := map[*segment]bool{}
		for i, seg := range l.segs {
			if len(seg.cum) != len(seg.msgs) || (i < len(l.segs)-1 && len(seg.msgs) != segSize) {
				return fail("segment %d holds %d msgs, %d cum", i, len(seg.msgs), len(seg.cum))
			}
			flat = append(flat, seg.msgs...)
			now[seg] = true
			if !live[seg] { // born in nextSegment during this step
				if viewed[seg] {
					return fail("nextSegment returned a viewed segment")
				}
				if retired[seg] {
					refills++
					delete(retired, seg)
				}
			}
		}
		for seg := range live {
			if !now[seg] {
				retired[seg] = true
			}
		}
		live = now
		if len(flat) != len(m.msgs) {
			return fail("log holds %d messages, model %d", len(flat), len(m.msgs))
		}
		cum := m.base
		for i := range flat {
			g, w := flat[i], m.msgs[i]
			if g.Offset != w.Offset || g.Topic != w.Topic || g.Partition != w.Partition ||
				!bytes.Equal(g.Value, w.Value) || !g.Published.Equal(w.Published) {
				return fail("offset %d reads %+v, model %+v", w.Offset, g, w)
			}
			if got := l.BytesThrough(w.Offset); got != cum {
				return fail("BytesThrough(%d) = %d, model %d", w.Offset, got, cum)
			}
			cum += int64(len(w.Value))
		}
		if got := l.BytesThrough(end); got != cum {
			return fail("BytesThrough(end) = %d, model %d", got, cum)
		}
		if got, want := l.Resident(), payloadBytes(m.msgs); got != want {
			return fail("resident bytes %d, model %d", got, want)
		}
		if got, want := l.Inflight(), payloadBytes(m.msgs[m.committed-m.first:]); got != want {
			return fail("in-flight bytes %d, model %d", got, want)
		}
		return nil
	}

	for step := 0; 2*step+1 < len(script); step++ {
		op, arg := script[2*step]%8, int64(script[2*step+1])
		name := ""
		switch op {
		case 0, 1:
			name = "Append"
			for n := 1 + arg%6; n > 0; n-- {
				msg := mint(m.end())
				l.Append("t", 0, nil, msg.Value, msg.Published)
				m.msgs = append(m.msgs, msg)
			}
		case 2, 3:
			name = "AppendReplicated"
			batch := make([]Message, 1+arg%9) // up to three segments in one call
			for i := range batch {
				batch[i] = mint(m.end() + int64(i))
			}
			lc := m.committed + arg/9%8
			if err := l.AppendReplicated(batch, spans, lc); err != nil {
				return refills, err
			}
			m.msgs = append(m.msgs, batch...)
			m.committed = max(m.committed, min(lc, m.end()))
		case 4:
			name = "View"
			if len(m.msgs) == 0 {
				continue
			}
			off := m.first + arg%int64(len(m.msgs))
			seg := l.segs[(off-l.first)/segSize]
			v := l.View(off, int(1+arg/32))
			if len(v) == 0 || !seg.viewed {
				return refills, fmt.Errorf("step %d: View(%d) returned %d messages, viewed=%v", step, off, len(v), seg.viewed)
			}
			viewed[seg] = true
			h := heldView{got: v}
			for i := range v {
				if w := m.msgs[off-m.first+int64(i)]; v[i].Offset != w.Offset || !bytes.Equal(v[i].Value, w.Value) {
					return refills, fmt.Errorf("step %d: View(%d)[%d] reads %+v, model %+v", step, off, i, v[i], w)
				}
				h.want = append(h.want, wantMsg{v[i].Offset, string(v[i].Value), v[i].Published})
			}
			held = append(held, h)
			viewHi = max(viewHi, off+int64(len(v)))
		case 5:
			name = "Commit"
			through := m.committed + arg%(m.end()-m.committed+2) // one past the end: clamped
			from, to, ok := l.Commit(through)
			through = min(through, m.end())
			if from != m.committed || to != through || ok != (through > m.committed) {
				return refills, fmt.Errorf("step %d: Commit(%d) = %d, %d, %v with mark %d, end %d",
					step, through, from, to, ok, m.committed, m.end())
			}
			m.committed = through
		case 6:
			name = "Trim"
			below := m.first + arg%(int64(len(m.msgs))+2*segSize)
			got := l.Trim(below)
			below = min(below, m.committed)
			for m.first+segSize <= below && len(m.msgs) >= segSize {
				m.base += payloadBytes(m.msgs[:segSize])
				m.msgs = m.msgs[segSize:]
				m.first += segSize
			}
			if got != m.first {
				return refills, fmt.Errorf("step %d: Trim returned floor %d, model %d", step, got, m.first)
			}
		case 7:
			switch arg % 4 {
			case 0:
				name = "ResetTo"
				m = logModel{first: m.end() + arg/4%7}
				m.committed = m.first
				l.ResetTo(m.first)
			case 1:
				// Either direction, and past both ends: the mark clamps to the
				// retained range.
				name = "SetCommitted"
				mark := m.first - 2 + arg/4%(int64(len(m.msgs))+5)
				l.SetCommitted(mark)
				m.committed = min(max(mark, m.first), m.end())
			default:
				name = "TruncateTo"
				lo := max(viewHi, m.first)
				if lo >= m.end() {
					continue
				}
				to := lo + arg%(m.end()-lo)
				l.TruncateTo(to)
				m.msgs = m.msgs[:to-m.first]
				m.committed = min(m.committed, to)
			}
		}
		if err := check(step, name); err != nil {
			return refills, err
		}
	}
	for _, h := range held {
		if len(h.got) != len(h.want) {
			return refills, fmt.Errorf("held view at %d changed length %d -> %d", h.want[0].offset, len(h.want), len(h.got))
		}
		for i, w := range h.want {
			if g := h.got[i]; g.Offset != w.offset || string(g.Value) != w.value || !g.Published.Equal(w.published) {
				return refills, fmt.Errorf("held view of offset %d now reads (%d, %q, %v), was (%d, %q, %v)",
					w.offset, g.Offset, g.Value, g.Published, w.offset, w.value, w.published)
			}
		}
	}
	return refills, nil
}

// logScript draws a script of n steps from a seed.
func logScript(seed int64, n int) []byte {
	next := xorshift(seed)
	out := make([]byte, 2*n)
	for i := range out {
		out[i] = byte(next(256))
	}
	return out
}

// TestPartitionLogMatchesModel is the segment-lifecycle property: over
// randomized operation sequences the log agrees with the slice model after
// every step, no segment that was ever viewed is born again (pointer
// identity), and every view ever handed out still reads what it read.
func TestPartitionLogMatchesModel(t *testing.T) {
	refills := 0
	for seed := int64(1); seed <= 300; seed++ {
		n, err := driveLogAgainstModel(logScript(seed, 400))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refills += n
	}
	if refills == 0 {
		t.Fatal("no script ever refilled a spare segment: the property is not exercised")
	}
}

// FuzzPartitionLogMatchesModel exposes the same driver to the native
// fuzzer; the committed corpus under testdata/fuzz holds scripts from the
// seeds above.
func FuzzPartitionLogMatchesModel(f *testing.F) {
	f.Add(logScript(7, 64))
	// Fill two segments as a follower, commit, trim, refill, view.
	f.Add(bytes.Repeat([]byte{2, 7, 5, 255, 6, 255, 2, 8, 4, 0, 7, 1}, 10))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		if _, err := driveLogAgainstModel(script); err != nil {
			t.Fatal(err)
		}
	})
}

// streamAllocPerMessage runs one producer/consumer/committer through a
// cluster on the virtual clock — 1024-message publishes, fetch, commit,
// persist (the trim instant) — and returns the Go heap bytes allocated
// per message after a warm-up of two segments per partition.
func streamAllocPerMessage(t *testing.T, shards, rf int) float64 {
	t.Helper()
	const (
		segSize = 1024
		parts   = 2
		warm    = 2 * segSize * parts
		total   = warm + 32*segSize*parts
	)
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: shards, Replication: rf, SegmentSize: segSize,
		AppendCost: time.Microsecond, FetchLatency: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 64)
	values := make([][]byte, segSize)
	for i := range values {
		values[i] = payload
	}
	ps, cursor := make([]int, parts), make([]int64, parts)
	for p := range ps {
		ps[p] = p
		c.Offsets().Save("g", "t", p, 0)
	}
	var ms runtime.MemStats
	var before uint64
	for sent, consumed := 0, 0; consumed < total; {
		if sent < total {
			if err := c.PublishValues(ctx, "t", values); err != nil {
				t.Fatal(err)
			}
			sent += len(values)
		}
		for consumed < sent {
			j, msgs, err := c.FetchOrWait(ctx, "t", ps, cursor, 0, segSize)
			if err != nil {
				t.Fatal(err)
			}
			cursor[j] += int64(len(msgs))
			consumed += len(msgs)
			if err := c.Commit("t", ps[j], cursor[j]); err != nil {
				t.Fatal(err)
			}
			c.Offsets().Save("g", "t", ps[j], cursor[j])
		}
		if sent == warm {
			runtime.ReadMemStats(&ms)
			before = ms.TotalAlloc
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / float64(total-warm)
}

// TestReplicationAllocBudget keeps the replication tax's memory term
// beside the code that sets it: a caught-up follower refills its trimmed,
// never-viewed segments, so the replicated data plane may allocate at most
// 1.25× the bytes per message of the unreplicated one — the leader's
// segments plus park/wake churn. Before the segment lifecycle each
// follower allocated (and the runtime zeroed, and the collector scanned) a
// fresh segment per SegmentSize messages and the ratio read ≈ 2.7×.
func TestReplicationAllocBudget(t *testing.T) {
	r1 := streamAllocPerMessage(t, 1, 1)
	r3 := streamAllocPerMessage(t, 3, 3)
	t.Logf("alloc bytes per message: replication-1 %.1f, replication-3 %.1f (%.2fx)", r1, r3, r3/r1)
	if r3 > 1.25*r1 {
		t.Fatalf("replication-3 allocates %.1f B/msg, over 1.25x replication-1's %.1f B/msg", r3, r1)
	}
}

// BenchmarkAppendReplicated prices the follower append per message with
// a full-segment batch at a segment boundary, the runner's steady state:
// "spare" trims behind itself so every append refills the spare (the
// caught-up follower), "cold" has each segment viewed first, so it dies by
// GC and every append allocates (what every follower append cost before).
func BenchmarkAppendReplicated(b *testing.B) {
	const segSize = 4096
	for _, cold := range []bool{false, true} {
		name := "spare"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			l := &Log{segSize: segSize}
			payload := make([]byte, 64)
			batch := make([]Message, segSize)
			for i := range batch {
				batch[i] = Message{Topic: "t", Value: payload, Published: vclock.Epoch}
			}
			spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				end := int64(i+1) * segSize
				batch[0].Offset = end - segSize
				if err := l.AppendReplicated(batch, spans, end); err != nil {
					b.Fatal(err)
				}
				if cold {
					l.View(end-segSize, 1)
				}
				l.Trim(end)
			}
			b.StopTimer()
			msgs := float64(b.N) * segSize
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(ms.TotalAlloc-before)/msgs, "B/msg")
		})
	}
}
