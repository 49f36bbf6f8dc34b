// Package mapreduce implements Pilot-MapReduce [54]: a MapReduce engine
// whose map and reduce tasks are pilot compute-units, with intermediate
// data shuffled through Pilot-Data. This realizes the paper's Table I
// "Data-Parallel/MapReduce" and "Dataflow" scenarios on the pilot
// abstraction — including cross-site shuffles whose transfer costs the
// data layer models.
package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

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
		i, in := i, in
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
		r := r
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

// kernelScratch is the reusable workspace of one map or reduce kernel:
// per-reducer emit buffers, the concatenated shuffle input, and
// groupSorted's columns. Pooling it makes steady-state kernels allocate
// only their encoded outputs.
//
// The pooling contract (seed-audit rule 8, DESIGN.md "Hot path"): Get
// and Put happen on the executor token — before the compute phase opens
// and after it rejoins — never inside a Compute body. The phase owns the
// scratch exclusively for its duration; nothing pooled may be referenced
// after release.
type kernelScratch struct {
	parts [][]KeyValue // map side: per-reducer emit buffers
	all   []KeyValue   // reduce side: concatenated shuffle input

	// groupSorted's workspace, reset at its entry. index is only ever
	// looked up, never ranged over: map iteration order must not reach
	// the output.
	index map[string]int32 // key → group id, dense in first-seen order
	keys  []string         // group id → key
	cnt   []int32          // group id → number of values
	gid   []int32          // pair → group id
	order []int32          // group ids in ascending key order
	next  []int32          // group id → next free slot of its run in vals
	vals  []string         // the groups' values, run after run in key order
}

func newScratch() *kernelScratch { return &kernelScratch{index: make(map[string]int32)} }

var kernelScratchPool = sync.Pool{New: func() any { return newScratch() }}

func getScratch() *kernelScratch { return kernelScratchPool.Get().(*kernelScratch) }

// release drops every string reference the scratch accumulated (pooled
// buffers must not pin split contents in memory between jobs: keys and
// values are substrings of the split) and returns it to the pool,
// keeping the slice capacities.
func (s *kernelScratch) release() {
	ps := s.parts[:cap(s.parts)]
	for i := range ps {
		p := ps[i][:cap(ps[i])]
		clear(p)
		ps[i] = p[:0]
	}
	s.parts = ps[:len(s.parts)]
	clear(s.all[:cap(s.all)])
	s.all = s.all[:0]
	clear(s.index)
	clear(s.keys[:cap(s.keys)])
	s.keys = s.keys[:0]
	clear(s.vals[:cap(s.vals)])
	s.vals = s.vals[:0]
	kernelScratchPool.Put(s)
}

// groupSorted invokes fn once per distinct key of kvs, in ascending key
// order, with the key's values in emission order, each call receiving a
// capped sub-slice of sc.vals. It groups by hashing and orders only the
// distinct keys: one pass gives every pair a dense group id through
// sc.index and counts the groups, the group ids are sorted by key, a
// prefix sum in that order lays the groups' runs out in sc.vals, and a
// second pass scatters the values into their runs. kvs is left as it was.
func groupSorted(kvs []KeyValue, sc *kernelScratch, fn func(key string, values []string) error) error {
	if len(kvs) > math.MaxInt32 {
		return fmt.Errorf("mapreduce: %d pairs in one partition exceed the grouping limit of %d", len(kvs), math.MaxInt32)
	}
	clear(sc.index)
	keys, cnt := sc.keys[:0], sc.cnt[:0]
	gid := grow(sc.gid, len(kvs))
	for i := range kvs {
		id, ok := sc.index[kvs[i].Key]
		if !ok {
			id = int32(len(keys))
			sc.index[kvs[i].Key] = id
			keys = append(keys, kvs[i].Key)
			cnt = append(cnt, 0)
		}
		cnt[id]++
		gid[i] = id
	}
	order := grow(sc.order, len(keys))
	for id := range order {
		order[id] = int32(id)
	}
	// Keys are distinct, so an unstable sort has one possible result.
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	next := grow(sc.next, len(keys))
	run := int32(0)
	for _, id := range order {
		next[id] = run
		run += cnt[id]
	}
	vals := grow(sc.vals, len(kvs))
	for i := range kvs {
		id := gid[i]
		vals[next[id]] = kvs[i].Value
		next[id]++
	}
	sc.keys, sc.cnt, sc.gid, sc.order, sc.next, sc.vals = keys, cnt, gid, order, next, vals
	// The scatter left next[id] one past the end of group id's run.
	for _, id := range order {
		hi := next[id]
		lo := hi - cnt[id]
		if err := fn(keys[id], vals[lo:hi:hi]); err != nil {
			return err
		}
	}
	return nil
}

// emitInto returns an emit function that appends to *out, allocated at
// the first pair with room for one pair per group of the grouping then in
// progress — what a combiner or reducer usually emits; one that emits
// more grows it as append does.
func (s *kernelScratch) emitInto(out *[]KeyValue) func(k, v string) {
	return func(k, v string) {
		if *out == nil {
			*out = make([]KeyValue, 0, len(s.keys))
		}
		*out = append(*out, KeyValue{k, v})
	}
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
	var kernelErr error
	sc := getScratch()
	ran := tc.Compute(ctx, func() { encoded, kernelErr = mapKernel(ctx, cfg, inputID, content, sc) })
	sc.release()
	if !ran {
		return ctx.Err()
	}
	if kernelErr != nil {
		return kernelErr
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

// mapKernel is the map task's compute phase: map the split, partition
// the emitted pairs by key hash, combine and encode each partition. It is
// handed the split and the scratch and nothing of the task context, so it
// cannot reach the clock, the data service or a stream.
func mapKernel(ctx context.Context, cfg Config, inputID string, content []byte, sc *kernelScratch) ([][]byte, error) {
	if cap(sc.parts) < cfg.Reducers {
		sc.parts = make([][]KeyValue, cfg.Reducers)
	}
	sc.parts = sc.parts[:cfg.Reducers]
	parts := sc.parts
	emit := func(k, v string) {
		r := partitionOf(k, cfg.Reducers)
		parts[r] = append(parts[r], KeyValue{k, v})
	}
	if err := cfg.Map(ctx, inputID, string(content), emit); err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}
	encoded := make([][]byte, cfg.Reducers)
	for r, kvs := range parts {
		if cfg.Combine != nil {
			var err error
			if kvs, err = combine(ctx, cfg.Combine, kvs, sc); err != nil {
				return nil, fmt.Errorf("combine: %w", err)
			}
		}
		encoded[r] = Encode(kvs)
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
// partitions into one slab, group by key, reduce each group, encode.
// Like mapKernel it sees nothing of the task context.
func reduceKernel(ctx context.Context, cfg Config, inputs []string, contents [][]byte, sc *kernelScratch) ([]byte, error) {
	lines := 0
	for _, content := range contents {
		lines += bytes.Count(content, lineSep) + 1
	}
	if cap(sc.all) < lines {
		sc.all = make([]KeyValue, 0, lines)
	}
	for i, content := range contents {
		var err error
		if sc.all, err = DecodeAppend(sc.all, content); err != nil {
			return nil, fmt.Errorf("decode %s: %w", inputs[i], err)
		}
	}
	var out []KeyValue
	emit := sc.emitInto(&out)
	if err := groupSorted(sc.all, sc, func(k string, vs []string) error {
		if err := cfg.Reduce(ctx, k, vs, emit); err != nil {
			return fmt.Errorf("reduce key %q: %w", k, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return Encode(out), nil
}

// combine groups and pre-reduces a map task's local output, reusing the
// scratch grouping columns (the caller owns sc for the whole kernel).
func combine(ctx context.Context, c Reducer, kvs []KeyValue, sc *kernelScratch) ([]KeyValue, error) {
	var out []KeyValue
	emit := sc.emitInto(&out)
	if err := groupSorted(kvs, sc, func(k string, vs []string) error {
		return c(ctx, k, vs, emit)
	}); err != nil {
		return nil, err
	}
	return out, nil
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

// lineSep is the record separator of the Encode format.
var lineSep = []byte{'\n'}

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

// Decode parses the Encode format.
func Decode(content []byte) ([]KeyValue, error) {
	out, err := DecodeAppend(make([]KeyValue, 0, bytes.Count(content, lineSep)+1), content)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeAppend decodes the Encode format, appending every pair onto dst
// and returning the extended slice (dst's contents so far are kept even
// on error). The whole payload is converted to a string once; every key
// and value is then a substring of it — strconv.Unquote returns the
// interior of an escape-free quoted string without copying — so decoding
// a shuffle partition costs one allocation for the text plus slice
// growth, not one per line. This is what removes the decode path from
// the allocation profile of the mapreduce benchmarks.
func DecodeAppend(dst []KeyValue, content []byte) ([]KeyValue, error) {
	text := string(content)
	for len(text) > 0 {
		line := text
		if nl := strings.IndexByte(text, '\n'); nl >= 0 {
			line, text = text[:nl], text[nl+1:]
		} else {
			text = ""
		}
		if line == "" {
			continue
		}
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			return dst, fmt.Errorf("mapreduce: malformed line %q", line)
		}
		k, err := strconv.Unquote(line[:tab])
		if err != nil {
			return dst, fmt.Errorf("mapreduce: bad key in %q: %w", line, err)
		}
		v, err := strconv.Unquote(line[tab+1:])
		if err != nil {
			return dst, fmt.Errorf("mapreduce: bad value in %q: %w", line, err)
		}
		dst = append(dst, KeyValue{k, v})
	}
	return dst, nil
}

// Collect fetches and decodes all job outputs into one sorted slice.
func Collect(ctx context.Context, mgr *core.Manager, res *Result) ([]KeyValue, error) {
	var mu sync.Mutex
	var all []KeyValue
	wg := vclock.NewGroup(mgr.Clock())
	errs := make([]error, len(res.OutputIDs))
	for i, id := range res.OutputIDs {
		i, id := i, id
		wg.Add(1)
		mgr.Clock().Go(func() {
			defer wg.Done()
			sites, ok := mgr.Data().Locate(id)
			if !ok || len(sites) == 0 {
				errs[i] = fmt.Errorf("mapreduce: output %s not found", id)
				return
			}
			content, err := mgr.Data().Read(ctx, id, sites[0])
			if err != nil {
				errs[i] = err
				return
			}
			// Decoding is pure CPU over fetched bytes: run it off-token so
			// concurrent output fetches decode in parallel.
			var kvs []KeyValue
			if !mgr.Clock().Compute(ctx, func() { kvs, err = Decode(content) }) {
				errs[i] = ctx.Err()
				return
			}
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			all = append(all, kvs...)
			mu.Unlock()
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		return all[i].Value < all[j].Value
	})
	return all, nil
}
