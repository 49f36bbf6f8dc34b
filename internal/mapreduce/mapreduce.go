// Package mapreduce implements Pilot-MapReduce [54]: a MapReduce engine
// whose map and reduce tasks are pilot compute-units, with intermediate
// data shuffled through Pilot-Data. This realizes the paper's Table I
// "Data-Parallel/MapReduce" and "Dataflow" scenarios on the pilot
// abstraction — including cross-site shuffles whose transfer costs the
// data layer models.
package mapreduce

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"gopilot/internal/core"
	"gopilot/internal/vclock"
)

// KeyValue is one record of MapReduce intermediate or output data.
type KeyValue struct {
	Key   string
	Value string
}

// Mapper consumes one input record (key = record id, value = content) and
// emits intermediate pairs. Mappers run inside a parallel compute phase
// (vclock's Compute purity contract): they must be pure CPU — no clock
// reads, no modeled sleeps, no stream draws, no shared mutation. Model
// per-task compute cost with Config.MapCost instead.
type Mapper func(ctx context.Context, key, value string, emit func(k, v string)) error

// Reducer consumes one key with all its values and emits output pairs.
// The same signature serves as Combiner. Reducers run inside a parallel
// compute phase and must be pure CPU (see Mapper); model cost with
// Config.ReduceCost.
type Reducer func(ctx context.Context, key string, values []string, emit func(k, v string)) error

// Config describes a MapReduce job.
type Config struct {
	// Name prefixes intermediate/output data-unit IDs.
	Name string
	// InputIDs names existing data-units, one per map task (the splits).
	InputIDs []string
	// Reducers is the reduce-task count R (default 1).
	Reducers int
	// Map and Reduce are the user functions; Combine optionally pre-
	// aggregates map-side (classic wordcount optimization).
	Map     Mapper
	Reduce  Reducer
	Combine Reducer
	// MapCost and ReduceCost add modeled compute per task, letting
	// benchmarks represent production-sized inputs whose processing time
	// dwarfs the (small) in-process sample data.
	MapCost, ReduceCost time.Duration
}

// Result reports a completed job.
type Result struct {
	// OutputIDs names the per-reducer output data-units.
	OutputIDs []string
	// Elapsed is the modeled end-to-end runtime.
	Elapsed time.Duration
	// MapElapsed is the modeled duration of the map phase.
	MapElapsed time.Duration
	// ReduceElapsed is the modeled duration of the shuffle+reduce phase.
	ReduceElapsed time.Duration
	// MapTasks and ReduceTasks count the units executed.
	MapTasks, ReduceTasks int
}

// Run executes the job on mgr's pilots and blocks until completion. The
// manager must have a data service configured.
func Run(ctx context.Context, mgr *core.Manager, cfg Config) (*Result, error) {
	if mgr.Data() == nil {
		return nil, errors.New("mapreduce: manager has no data service")
	}
	if cfg.Map == nil || cfg.Reduce == nil {
		return nil, errors.New("mapreduce: Map and Reduce are required")
	}
	if len(cfg.InputIDs) == 0 {
		return nil, errors.New("mapreduce: no input splits")
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = 1
	}
	if cfg.Name == "" {
		cfg.Name = "mrjob"
	}
	clock := mgr.Clock()
	start := clock.Now()

	// ------------------------------ map phase ------------------------------
	mapUnits := make([]*core.ComputeUnit, 0, len(cfg.InputIDs))
	for i, in := range cfg.InputIDs {
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name:      fmt.Sprintf("%s.map%d", cfg.Name, i),
			Cores:     1,
			InputData: []string{in},
			Run: func(ctx context.Context, tc core.TaskContext) error {
				return runMapTask(ctx, tc, cfg, i, in)
			},
		})
		if err != nil {
			return nil, err
		}
		mapUnits = append(mapUnits, u)
	}
	for _, u := range mapUnits {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			return nil, fmt.Errorf("mapreduce: map unit %s %v: %w", u.ID(), s, err)
		}
	}
	mapDone := clock.Now()

	// --------------------------- reduce phase ------------------------------
	reduceUnits := make([]*core.ComputeUnit, 0, cfg.Reducers)
	outputIDs := make([]string, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		// Every reducer depends on its partition from every map task.
		inputs := make([]string, len(cfg.InputIDs))
		for m := range cfg.InputIDs {
			inputs[m] = partitionID(cfg.Name, m, r)
		}
		outputIDs[r] = fmt.Sprintf("%s.out%d", cfg.Name, r)
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name:      fmt.Sprintf("%s.reduce%d", cfg.Name, r),
			Cores:     1,
			InputData: inputs,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				return runReduceTask(ctx, tc, cfg, r, inputs, outputIDs[r])
			},
		})
		if err != nil {
			return nil, err
		}
		reduceUnits = append(reduceUnits, u)
	}
	for _, u := range reduceUnits {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			return nil, fmt.Errorf("mapreduce: reduce unit %s %v: %w", u.ID(), s, err)
		}
	}
	end := clock.Now()

	return &Result{
		OutputIDs:     outputIDs,
		Elapsed:       end.Sub(start),
		MapElapsed:    mapDone.Sub(start),
		ReduceElapsed: end.Sub(mapDone),
		MapTasks:      len(cfg.InputIDs),
		ReduceTasks:   cfg.Reducers,
	}, nil
}

// kernelScratch is the reusable workspace of one map or reduce kernel. A
// kernel files every pair as it is emitted (or decoded): one key → id
// index for the whole kernel hands each distinct key a dense id and its
// partition, and the pair is stored as its key id and value in that
// partition's columns. each then groups one partition at a time. A
// kernel starts on a reset scratch (new, or released); reusing it makes
// steady-state kernels allocate only their encoded outputs.
//
// The reuse contract (seed-audit rule 8, DESIGN.md "Hot path"):
// getScratch and release happen on the executor token — before the
// compute phase opens and after it rejoins — never inside a Compute body.
// The phase owns the scratch exclusively for its duration; nothing of a
// scratch may be referenced after release.
type kernelScratch struct {
	// index is only ever looked up, never ranged over: map iteration
	// order must not reach the output.
	index map[string]slot // key → its id and partition
	keys  []string        // id → key, ids dense in first-seen order
	cnt   []int           // id → number of values
	parts []column        // partition → its pairs
	err   error           // the grouping limit, hit by add

	// each's workspace, and the combiner's or reducer's output.
	next []int      // id → next free slot of its run in vals
	vals []string   // one partition's values, run after run in key order
	out  []KeyValue // what the combiner or reducer emitted, for Encode
}

// slot is what the index holds for a key.
type slot struct{ id, part int32 }

// column holds one partition's pairs in emission order, 20 bytes each.
type column struct {
	ids      []int32  // pair → key id
	vals     []string // pair → value
	distinct []int32  // the partition's distinct ids, sorted by key in each
}

// maxKeys bounds the distinct keys of one kernel, so that an id fits an
// int32 (a variable so that a test can reach it).
var maxKeys = math.MaxInt32

func newScratch() *kernelScratch { return &kernelScratch{index: make(map[string]slot)} }

// scratchFree is the free list of released scratches. Unlike a
// sync.Pool, no collection empties it, so a job starts on the columns the
// previous job grew. It holds at most as many scratches as were ever out at once.
var scratchFree struct {
	sync.Mutex
	list []*kernelScratch
}

func getScratch() *kernelScratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if list := scratchFree.list; len(list) > 0 {
		scratchFree.list = list[:len(list)-1]
		return list[len(list)-1]
	}
	return newScratch()
}

// release resets the scratch and returns it to the free list.
func (s *kernelScratch) release() {
	s.reset()
	scratchFree.Lock()
	scratchFree.list = append(scratchFree.list, s)
	scratchFree.Unlock()
}

// reset drops every string reference the scratch accumulated (a kept
// scratch must not pin split contents in memory between jobs: keys and
// values are substrings of the split), keeping the capacities.
func (s *kernelScratch) reset() {
	clear(s.index)
	clear(s.keys[:cap(s.keys)])
	// A column past len(s.parts) was emptied by an earlier reset.
	for i, c := range s.parts {
		clear(c.vals[:cap(c.vals)])
		s.parts[i] = column{c.ids[:0], c.vals[:0], c.distinct[:0]}
	}
	clear(s.vals[:cap(s.vals)])
	clear(s.out[:cap(s.out)])
	s.keys, s.cnt, s.parts, s.err, s.vals, s.out = s.keys[:0], s.cnt[:0], s.parts[:0], nil, s.vals[:0], s.out[:0]
}

// add files the pair (k, v) in its key's partition. A key seen for the
// first time gets the next id and its partition, partitionOf over
// len(s.parts) partitions; past maxKeys ids add records s.err instead.
func (s *kernelScratch) add(k, v string) {
	sl, ok := s.index[k]
	if !ok {
		if len(s.keys) == maxKeys {
			s.err = fmt.Errorf("mapreduce: more than %d distinct keys in one task exceed the grouping limit", maxKeys)
			return
		}
		sl = slot{int32(len(s.keys)), int32(partitionOf(k, len(s.parts)))}
		s.index[k] = sl
		s.keys = append(s.keys, k)
		s.cnt = append(s.cnt, 0)
		s.parts[sl.part].distinct = append(s.parts[sl.part].distinct, sl.id)
	}
	s.cnt[sl.id]++
	c := &s.parts[sl.part]
	if len(c.ids) == cap(c.ids) { // double: a fresh scratch allocates ≈ 2×, not 5×, what it keeps
		c.ids, c.vals = slices.Grow(c.ids, len(c.ids)+64), slices.Grow(c.vals, len(c.vals)+64)
	}
	c.ids = append(c.ids, sl.id)
	c.vals = append(c.vals, v)
}

// each invokes fn once per distinct key of partition r, in ascending key
// order, with the key's values in emission order, each call receiving a
// capped sub-slice of s.vals. Only the partition's distinct ids are
// sorted; a prefix sum in that order lays the groups' runs out in s.vals,
// and one pass over the partition's pairs scatters the values into their
// runs.
func (s *kernelScratch) each(r int, fn func(key string, values []string) error) error {
	c, keys, cnt := &s.parts[r], s.keys, s.cnt
	// Keys are distinct, so an unstable sort has one possible result.
	slices.SortFunc(c.distinct, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	next := grow(s.next, len(keys))
	run := 0
	for _, id := range c.distinct {
		next[id] = run
		run += cnt[id]
	}
	vals := grow(s.vals, len(c.ids))
	for i, id := range c.ids {
		vals[next[id]] = c.vals[i]
		next[id]++
	}
	s.next, s.vals = next, vals
	// The scatter left next[id] one past the end of group id's run.
	for _, id := range c.distinct {
		hi := next[id]
		if err := fn(keys[id], vals[hi-cnt[id]:hi:hi]); err != nil {
			return err
		}
	}
	return nil
}

// emit appends a combiner's or reducer's pair to s.out.
func (s *kernelScratch) emit(k, v string) { s.out = append(s.out, KeyValue{k, v}) }

// encode encodes s.out and empties it for the next partition.
func (s *kernelScratch) encode() []byte {
	b := Encode(s.out)
	s.out = s.out[:0]
	return b
}

// grow returns col resized to n entries, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](col []T, n int) []T {
	if cap(col) < n {
		return make([]T, n)
	}
	return col[:n]
}

// runMapTask reads a split, applies the mapper, optionally combines, and
// writes R partition files at the task's site. The map/combine/encode
// kernel — pure CPU over data already read — runs as a parallel compute
// phase (tc.Compute), so concurrent map tasks use real cores; the data
// reads/writes and the modeled MapCost stay on the executor token.
func runMapTask(ctx context.Context, tc core.TaskContext, cfg Config, mapIdx int, inputID string) error {
	content, err := tc.Data.Read(ctx, inputID, tc.Site)
	if err != nil {
		return fmt.Errorf("read split: %w", err)
	}
	var encoded [][]byte
	sc := getScratch()
	ran := tc.Compute(ctx, func() { encoded, err = mapKernel(ctx, cfg, inputID, content, sc) })
	sc.release()
	if !ran {
		return ctx.Err()
	}
	if err != nil {
		return err
	}
	if cfg.MapCost > 0 && !tc.Sleep(ctx, cfg.MapCost) {
		return ctx.Err()
	}
	for r := range encoded {
		if err := tc.Data.Write(ctx, partitionID(cfg.Name, mapIdx, r), encoded[r], tc.Site); err != nil {
			return fmt.Errorf("write partition: %w", err)
		}
	}
	return nil
}

// mapKernel is the map task's compute phase: map the split, filing each
// emitted pair in its key's partition, then combine and encode each
// partition. It is handed the split and the scratch and nothing of the
// task context, so it cannot reach the clock, the data service or a
// stream. The mapper sees the split in place, through view.
func mapKernel(ctx context.Context, cfg Config, inputID string, content []byte, sc *kernelScratch) ([][]byte, error) {
	sc.parts = grow(sc.parts, cfg.Reducers)
	if err := cfg.Map(ctx, inputID, view(content), sc.add); err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}
	if sc.err != nil {
		return nil, sc.err
	}
	emit := sc.emit
	encoded := make([][]byte, cfg.Reducers)
	for r, c := range sc.parts {
		if cfg.Combine == nil {
			for i, id := range c.ids {
				sc.out = append(sc.out, KeyValue{sc.keys[id], c.vals[i]})
			}
		} else if err := sc.each(r, func(k string, vs []string) error { return cfg.Combine(ctx, k, vs, emit) }); err != nil {
			return nil, fmt.Errorf("combine: %w", err)
		}
		encoded[r] = sc.encode()
	}
	return encoded, nil
}

// runReduceTask fetches its partition from every map output (the shuffle),
// groups by key, reduces, and writes one output data-unit. The shuffle
// reads stay on the executor token (they pay modeled transfer costs); the
// decode/group/reduce/encode kernel runs as a parallel compute phase.
func runReduceTask(ctx context.Context, tc core.TaskContext, cfg Config, r int, inputs []string, outID string) error {
	contents := make([][]byte, len(inputs))
	for i, id := range inputs {
		content, err := tc.Data.Read(ctx, id, tc.Site)
		if err != nil {
			return fmt.Errorf("shuffle read %s: %w", id, err)
		}
		contents[i] = content
	}
	var encoded []byte
	var kernelErr error
	sc := getScratch()
	ran := tc.Compute(ctx, func() { encoded, kernelErr = reduceKernel(ctx, cfg, inputs, contents, sc) })
	sc.release()
	if !ran {
		return ctx.Err()
	}
	if kernelErr != nil {
		return kernelErr
	}
	if cfg.ReduceCost > 0 && !tc.Sleep(ctx, cfg.ReduceCost) {
		return ctx.Err()
	}
	return tc.Data.Write(ctx, outID, encoded, tc.Site)
}

// reduceKernel is the reduce task's compute phase: decode the shuffled
// partitions straight into the scratch's columns, group by key, reduce
// each group, encode. Like mapKernel it sees nothing of the task context.
func reduceKernel(ctx context.Context, cfg Config, inputs []string, contents [][]byte, sc *kernelScratch) ([]byte, error) {
	sc.parts = grow(sc.parts, 1)
	for i, content := range contents {
		if err := decodeLines(content, sc.add); err != nil {
			return nil, fmt.Errorf("decode %s: %w", inputs[i], err)
		}
	}
	if sc.err != nil {
		return nil, sc.err
	}
	emit := sc.emit
	if err := sc.each(0, func(k string, vs []string) error {
		if err := cfg.Reduce(ctx, k, vs, emit); err != nil {
			return fmt.Errorf("reduce key %q: %w", k, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sc.encode(), nil
}

// Group collects values per key preserving per-key insertion order.
func Group(kvs []KeyValue) map[string][]string {
	out := make(map[string][]string)
	for _, kv := range kvs {
		out[kv.Key] = append(out[kv.Key], kv.Value)
	}
	return out
}

// partitionOf hashes a key onto one of r partitions.
func partitionOf(key string, r int) int {
	h := uint32(2166136261) // FNV-1a, 32 bit, as hash/fnv.New32a
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(r))
}

func partitionID(job string, m, r int) string {
	return fmt.Sprintf("%s.m%d.p%d", job, m, r)
}

// Encode serializes pairs as quoted tab-separated lines, safe for any byte
// content. The output buffer is sized up front (quoting adds at least the
// two quote characters per field), so typical pair sets encode with one
// allocation.
func Encode(kvs []KeyValue) []byte {
	size := 0
	for i := range kvs {
		size += len(kvs[i].Key) + len(kvs[i].Value) + 6
	}
	b := make([]byte, 0, size)
	for i := range kvs {
		b = strconv.AppendQuote(b, kvs[i].Key)
		b = append(b, '\t')
		b = strconv.AppendQuote(b, kvs[i].Value)
		b = append(b, '\n')
	}
	return b
}

// Decode parses the Encode format. The pairs alias content, which must
// not be modified while they are in use.
func Decode(content []byte) ([]KeyValue, error) {
	out := make([]KeyValue, 0, strings.Count(view(content), "\n")+1)
	if err := decodeLines(content, func(k, v string) { out = append(out, KeyValue{k, v}) }); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeLines parses the Encode format, calling fn with every pair in
// order. Every key and value is a substring of the payload's view —
// strconv.Unquote returns the interior of an escape-free quoted string
// without copying — so decoding a shuffle partition allocates nothing
// for escape-free pairs.
func decodeLines(content []byte, fn func(k, v string)) error {
	text := view(content)
	for text != "" {
		var line string
		if line, text, _ = strings.Cut(text, "\n"); line == "" {
			continue
		}
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			return fmt.Errorf("mapreduce: malformed line %q", line)
		}
		k, err := strconv.Unquote(line[:tab])
		if err != nil {
			return fmt.Errorf("mapreduce: bad key in %q: %w", line, err)
		}
		v, err := strconv.Unquote(line[tab+1:])
		if err != nil {
			return fmt.Errorf("mapreduce: bad value in %q: %w", line, err)
		}
		fn(k, v)
	}
	return nil
}

// view is b as a string, without a copy: b must never change afterwards,
// which core.DataService's Read contract grants a split or a partition.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Collect fetches all job outputs, then decodes them into one sorted
// slice, allocated once. The pairs alias the outputs' contents.
func Collect(ctx context.Context, mgr *core.Manager, res *Result) ([]KeyValue, error) {
	wg := vclock.NewGroup(mgr.Clock())
	contents := make([][]byte, len(res.OutputIDs))
	errs := make([]error, len(res.OutputIDs))
	for i, id := range res.OutputIDs {
		wg.Add(1)
		mgr.Clock().Go(func() {
			defer wg.Done()
			sites, ok := mgr.Data().Locate(id)
			if !ok || len(sites) == 0 {
				errs[i] = fmt.Errorf("mapreduce: output %s not found", id)
				return
			}
			contents[i], errs[i] = mgr.Data().Read(ctx, id, sites[0])
		})
	}
	wg.Wait()
	// Decoding is pure CPU over fetched bytes: one off-token phase, into a
	// result sized by the outputs' line counts, which bound their pairs.
	var all []KeyValue
	if !mgr.Clock().Compute(ctx, func() {
		n := 0
		for _, c := range contents {
			n += strings.Count(view(c), "\n") + 1
		}
		all = make([]KeyValue, 0, n)
		for i, c := range contents { // a failed read keeps its own error
			errs[i] = cmp.Or(errs[i], decodeLines(c, func(k, v string) { all = append(all, KeyValue{k, v}) }))
		}
	}) {
		return nil, ctx.Err()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	slices.SortFunc(all, func(a, b KeyValue) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
	return all, nil
}
