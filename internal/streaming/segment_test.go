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
	"gopilot/internal/vclock/vclocktest"
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

// birth is what the driver tracks about one life of a segment, for the
// capacity rule.
type birth struct {
	small bool // born before the log sealed a segment
	peak  int  // most messages it has held
	cap   int  // cap(msgs) after the previous step
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
// bare Log with segSize-message segments — no broker, no topic map, no
// clock — leader appends (Append), follower appends (AppendReplicated),
// views, commits, commit-mark placements, trims, suffix truncations and
// resets, in any order: a log plays both roles over its life — and checks
// the log against the model after every step. Every message carries a
// payload unique to its offset and write, and every view ever returned is
// kept to the end of the run and re-read after every later step, which is
// what proves views survive growth, refill and truncation. Truncations
// stay at or above the highest offset ever viewed, which is the cluster's
// protocol (views only below the acknowledged watermark, truncation only
// at or above it). At 4-message segments scripts seal, trim and refill
// constantly and never grow (the floor is above segSize); at 64 the first
// segment of every log grows 16 → 32 → 64. Returns how many segments were
// refilled and how many growth steps were taken.
func driveLogAgainstModel(script []byte, segSize int64) (refills, growths int, err error) {
	full := int(segSize) // a sealed segment's length, and a hot one's capacity
	l := &Log{segSize: full}
	spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
	var (
		m       logModel
		held    []heldView
		viewHi  int64 // highest offset any view has reached (exclusive)
		writes  int
		sealed  bool                    // the log has appended past a full segment or trimmed one
		live    = map[*segment]bool{}   // in l.segs after the previous step
		retired = map[*segment]bool{}   // left l.segs, not (yet) refilled
		viewed  = map[*segment]bool{}   // a view of it has left the log
		births  = map[*segment]*birth{} // this life of each segment in l.segs
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
			if len(seg.cum) != len(seg.msgs) || (i < len(l.segs)-1 && len(seg.msgs) != full) {
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
				// Everything behind the tail is full, so only segs[0] can
				// have been born before the log's first seal.
				births[seg] = &birth{small: !sealed && i == 0}
			} else if cap(seg.msgs) != births[seg].cap {
				growths++
			}
			// The capacity rule: a log pays for what it holds until it seals
			// a segment, and for whole segments after.
			b := births[seg]
			b.peak, b.cap = max(b.peak, len(seg.msgs)), cap(seg.msgs)
			if cap(seg.cum) != b.cap || b.cap > full ||
				(b.small && b.cap > max(minSegCap, 2*b.peak)) || (!b.small && b.cap != full) {
				return fail("segment %d (born small: %v) has cap %d/%d, has held %d, segSize %d",
					i, b.small, b.cap, cap(seg.cum), b.peak, segSize)
			}
		}
		sealed = sealed || len(l.segs) > 1
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
		for _, h := range held {
			if len(h.got) != len(h.want) {
				return fail("held view at %d changed length %d -> %d", h.want[0].offset, len(h.want), len(h.got))
			}
			for i, w := range h.want {
				if g := h.got[i]; g.Offset != w.offset || string(g.Value) != w.value || !g.Published.Equal(w.published) {
					return fail("held view of offset %d now reads (%d, %q, %v), was (%d, %q, %v)",
						w.offset, g.Offset, g.Value, g.Published, w.offset, w.value, w.published)
				}
			}
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
				return refills, growths, err
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
				return refills, growths, fmt.Errorf("step %d: View(%d) returned %d messages, viewed=%v", step, off, len(v), seg.viewed)
			}
			viewed[seg] = true
			h := heldView{got: v}
			for i := range v {
				if w := m.msgs[off-m.first+int64(i)]; v[i].Offset != w.Offset || !bytes.Equal(v[i].Value, w.Value) {
					return refills, growths, fmt.Errorf("step %d: View(%d)[%d] reads %+v, model %+v", step, off, i, v[i], w)
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
				return refills, growths, fmt.Errorf("step %d: Commit(%d) = %d, %d, %v with mark %d, end %d",
					step, through, from, to, ok, m.committed, m.end())
			}
			m.committed = through
		case 6:
			name = "Trim"
			below := m.first + arg%(int64(len(m.msgs))+2*segSize)
			got := l.Trim(below)
			below = min(below, m.committed)
			for m.first+segSize <= below && int64(len(m.msgs)) >= segSize {
				m.base += payloadBytes(m.msgs[:segSize])
				m.msgs = m.msgs[segSize:]
				m.first += segSize
				sealed = true
			}
			if got != m.first {
				return refills, growths, fmt.Errorf("step %d: Trim returned floor %d, model %d", step, got, m.first)
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
			return refills, growths, err
		}
	}
	return refills, growths, nil
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

// growthScript walks one log through the born-small lifecycle at
// 64-message segments: growth with views held across it, TruncateTo into
// the grown tail, re-append over the truncated slots, ResetTo, growth
// again. The committed corpus seed "growth-truncate-reset" is this script.
var growthScript = []byte{
	0, 5, 0, 5, // 12 messages in a 16-slot array
	4, 96, // view [0, 4)
	0, 5, // 18: grows 16 → 32
	4, 45, // view [9, 11)
	2, 8, 0, 5, // 27, then 33: grows 32 → 64
	7, 6, // TruncateTo(17), inside the grown tail
	0, 5, // re-append 17..22 over the truncated slots
	4, 20, // view [20, 21)
	7, 12, // ResetTo(26)
	0, 5, 0, 5, 0, 5, // 18 messages: born small again, grows 16 → 32
	4, 0, // view [26, 27)
	2, 8, 2, 8, // 36: grows 32 → 64
}

// sealTrimScript fills a 64-message segment exactly, has it viewed,
// committed and trimmed away whole — the log is empty and tail never saw
// the segment full — and appends: the log sealed a segment, so the next is
// born at full size. Batch-aligned producers with a prompt consumer do this
// at every boundary.
var sealTrimScript = []byte{2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 0, 0, 4, 0, 5, 64, 6, 64, 0, 0}

// TestPartitionLogMatchesModel is the segment-lifecycle property: over
// randomized operation sequences the log agrees with the slice model after
// every step, no segment that was ever viewed is born again (pointer
// identity), every segment obeys the capacity rule, and every view ever
// handed out reads what it read after every later step.
func TestPartitionLogMatchesModel(t *testing.T) {
	for _, segSize := range []int64{4, 64} {
		refills, growths := 0, 0
		for seed := int64(1); seed <= 300; seed++ {
			r, g, err := driveLogAgainstModel(logScript(seed, 400), segSize)
			if err != nil {
				t.Fatalf("segSize %d seed %d: %v", segSize, seed, err)
			}
			refills += r
			growths += g
		}
		t.Logf("segSize %d: %d refills, %d growth steps", segSize, refills, growths)
		if refills == 0 {
			t.Fatalf("segSize %d: no script ever refilled a spare segment: the property is not exercised", segSize)
		}
		if (growths > 0) != (segSize > minSegCap) {
			t.Fatalf("segSize %d: %d growth steps", segSize, growths)
		}
	}
	if _, g, err := driveLogAgainstModel(growthScript, 64); err != nil || g != 4 {
		t.Fatalf("growth script: %d growth steps (want 4), err %v", g, err)
	}
	if _, g, err := driveLogAgainstModel(sealTrimScript, 64); err != nil || g != 2 {
		t.Fatalf("seal-trim script: %d growth steps (want 2: 16 → 32 → 64 before the seal), err %v", g, err)
	}
}

// FuzzPartitionLogMatchesModel exposes the same driver to the native
// fuzzer, each script at both segment sizes; the committed corpus under
// testdata/fuzz holds scripts from the seeds above and growthScript.
func FuzzPartitionLogMatchesModel(f *testing.F) {
	f.Add(logScript(7, 64))
	// Fill two segments as a follower, commit, trim, refill, view.
	f.Add(bytes.Repeat([]byte{2, 7, 5, 255, 6, 255, 2, 8, 4, 0, 7, 1}, 10))
	f.Add(sealTrimScript)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		for _, segSize := range []int64{4, 64} {
			if _, _, err := driveLogAgainstModel(script, segSize); err != nil {
				t.Fatalf("segSize %d: %v", segSize, err)
			}
		}
	})
}

// streamAllocPerMessage runs one producer/consumer/committer through a
// cluster on the virtual clock — 1024-message publishes, fetch, commit,
// persist (the trim instant) — and returns the Go heap bytes and the heap
// objects allocated per message after a warm-up of two segments per
// partition.
func streamAllocPerMessage(t *testing.T, shards, rf int) (bytes, mallocs float64) {
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
	var before, beforeN uint64
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
			before, beforeN = ms.TotalAlloc, ms.Mallocs
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / float64(total-warm), float64(ms.Mallocs-beforeN) / float64(total-warm)
}

// TestReplicationAllocBudget keeps the replication tax's memory term
// beside the code that sets it: a caught-up follower refills its trimmed,
// never-viewed segments, so the replicated data plane may allocate at most
// 1.25× the bytes per message of the unreplicated one — the leader's
// segments plus park/wake churn. Before the segment lifecycle each
// follower allocated (and the runtime zeroed, and the collector scanned) a
// fresh segment per SegmentSize messages and the ratio read ≈ 2.7×.
//
// The count clause holds the other term: a park allocates nothing (the
// participant record is the parker, waiter lists keep their arrays, runners
// and calls re-arm one wait object), so what is left per batch is a
// publish's and a poll's own wait object and scratch, and the segments.
// When every park minted a parker, a channel, an event and two one-slot
// lists this shape read 0.065 mallocs/msg on replication 3 (0.016 on
// replication 1); it reads 0.014 (0.010).
func TestReplicationAllocBudget(t *testing.T) {
	r1, n1 := streamAllocPerMessage(t, 1, 1)
	r3, n3 := streamAllocPerMessage(t, 3, 3)
	t.Logf("alloc bytes per message: replication-1 %.1f, replication-3 %.1f (%.2fx)", r1, r3, r3/r1)
	t.Logf("mallocs per message: replication-1 %.4f, replication-3 %.4f", n1, n3)
	if r3 > 1.25*r1 {
		t.Fatalf("replication-3 allocates %.1f B/msg, over 1.25x replication-1's %.1f B/msg", r3, r1)
	}
	if n3 > 0.02 {
		t.Fatalf("replication-3 makes %.4f mallocs/msg, over the 0.02 budget: a park is allocating again", n3)
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

// BenchmarkLogAppendCold prices the small end: a fresh default-size log
// takes the 375 messages one chaos-scenario replica holds. B/op is the
// number — what a touched partition costs per copy before it ever seals.
func BenchmarkLogAppendCold(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := &Log{segSize: 4096}
		for j := 0; j < 375; j++ {
			l.Append("t", 0, nil, payload, vclock.Epoch)
		}
	}
}

// BenchmarkLogAppendHot prices the leader append per message in steady
// state across segment boundaries: each sealed segment is viewed (a
// consumer fetched it), committed and trimmed, so every boundary births a
// full-size segment — the bypass for the born-small path.
func BenchmarkLogAppendHot(b *testing.B) {
	const segSize = 4096
	l := &Log{segSize: segSize}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append("t", 0, nil, payload, vclock.Epoch)
		if end := int64(i + 1); end%segSize == 0 {
			l.View(end-segSize, 1)
			l.Commit(end)
			l.Trim(end)
		}
	}
}

// TestColdPartitionFootprint holds the small end of the range to the same
// standard as the hot one: a touched partition costs what it holds. 256
// partitions on a replication-3 cluster take one 16-message publish each
// and are drained; everything allocated from the publish to the last
// commit, divided by the 768 replica logs, must stay within 8 KB per log.
// When every log's first append allocated a full default segment it read
// ≈ 458 KB.
func TestColdPartitionFootprint(t *testing.T) {
	const (
		parts   = 256
		perPart = 16
		rf      = 3
	)
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: rf,
		AppendCost: time.Microsecond, FetchLatency: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 64)
	values := make([][]byte, parts*perPart) // key-less: round-robin, 16 per partition
	for i := range values {
		values[i] = payload
	}
	ps, cursor := make([]int, parts), make([]int64, parts)
	for p := range ps {
		ps[p] = p
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if err := c.PublishValues(ctx, "t", values); err != nil {
		t.Fatal(err)
	}
	for consumed := 0; consumed < len(values); {
		j, msgs, err := c.FetchOrWait(ctx, "t", ps, cursor, 0, perPart)
		if err != nil {
			t.Fatal(err)
		}
		cursor[j] += int64(len(msgs))
		consumed += len(msgs)
		if err := c.Commit("t", ps[j], cursor[j]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	perLog := float64(ms.TotalAlloc-before) / (parts * rf)
	t.Logf("%.0f B allocated per replica log holding %d messages", perLog, perPart)
	if perLog > 8<<10 {
		t.Fatalf("a cold replica log costs %.0f B, over the 8 KB budget", perLog)
	}
}

// TestViewsSurviveGrowthConcurrently is the born-small proof under the race
// detector: a consumer keeps every view it is handed and re-reads all of
// them after every fetch while a producer appends one message at a time
// through the partition's growth steps (16 → 32 → 64 → 128 → 256 slots).
// The re-read runs in a Compute body — the consumer's goroutine, off the
// token — and each round's producer is made runnable just before it, so
// Compute's token release hands the producer the token and its append
// (slot write, growth copy) executes while the re-read is in flight.
func TestViewsSurviveGrowthConcurrently(t *testing.T) {
	const total = 200
	clock := vclocktest.Adopted(t)
	b := oneBroker(ClusterConfig{AppendCost: time.Microsecond, FetchLatency: time.Microsecond, Clock: clock})
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	publish := func(i int) {
		if _, err := b.Publish(ctx, "t", nil, []byte(fmt.Sprint("v", i))); err != nil {
			t.Error(err)
		}
	}
	publish(0)
	producers := vclock.NewGroup(clock)
	var held [][]Message
	for next, sent := int64(0), 1; next < total; {
		v, err := b.Fetch(ctx, "t", 0, next, 8)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, v)
		next += int64(len(v))
		if sent < total {
			i := sent
			sent++
			producers.Add(1)
			clock.Go(func() {
				defer producers.Done()
				publish(i)
			})
		}
		clock.Compute(ctx, func() {
			at := int64(0)
			for _, h := range held {
				for i := range h {
					if h[i].Offset != at || string(h[i].Value) != fmt.Sprint("v", at) {
						t.Errorf("held view of offset %d reads (%d, %q)", at, h[i].Offset, h[i].Value)
						return
					}
					at++
				}
			}
		})
	}
	producers.Wait()
	part := replicaLog(b, "t", 0, 0)
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := cap(part.segs[0].msgs); c != 256 {
		t.Fatalf("tail holds %d messages in %d slots, want 256: the log did not grow", total, c)
	}
}
