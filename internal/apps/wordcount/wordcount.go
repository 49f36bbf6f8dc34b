// Package wordcount provides the classic MapReduce wordcount application
// (Table II's Pilot-Hadoop case study) plus a Zipfian corpus generator, so
// benchmarks control corpus size and skew reproducibly.
package wordcount

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"gopilot/internal/dist"
	"gopilot/internal/mapreduce"
)

// GenerateCorpus builds nSplits documents of wordsPerSplit words drawn
// Zipf-skewed from a synthetic vocabulary of vocab words. The stream is
// the generator's slot on the experiment's seeding spine (e.g.
// root.Named("corpus")).
func GenerateCorpus(nSplits, wordsPerSplit, vocab int, s *dist.Stream) []string {
	z := dist.ZipfFrom(s, 1.3, 1, uint64(vocab-1))
	out := make([]string, nSplits)
	var buf []byte
	for i := range out {
		buf = buf[:0]
		for w := 0; w < wordsPerSplit; w++ {
			buf = append(buf, 'w')
			buf = strconv.AppendUint(buf, z.Uint64(), 10)
			buf = append(buf, ' ')
		}
		out[i] = string(buf)
	}
	return out
}

// Map tokenizes a split as strings.Fields does and emits (word, 1). It is
// a pure CPU kernel — no clock reads, no stream draws, no shared mutation
// — so the MapReduce engine runs it inside a parallel compute phase
// (vclock.Compute) and map tasks use real cores under the virtual-time
// executor. An ASCII byte is classified by table; only a byte ≥ 0x80
// starts a rune decode.
func Map(_ context.Context, _ string, value string, emit func(k, v string)) error {
	start := -1 // start of the word being read, or -1 between words
	for i := 0; i < len(value); {
		space, width := asciiSpace[value[i]], 1
		if value[i] >= utf8.RuneSelf {
			r, w := utf8.DecodeRuneInString(value[i:])
			space, width = unicode.IsSpace(r), w
		}
		if space {
			if start >= 0 {
				emit(value[start:i], "1")
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += width
	}
	if start >= 0 {
		emit(value[start:], "1")
	}
	return nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Reduce sums counts per word. It doubles as the combiner. Like Map it is
// a pure CPU kernel, safe inside a parallel compute phase.
func Reduce(_ context.Context, key string, values []string, emit func(k, v string)) error {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("wordcount: bad count %q: %w", v, err)
		}
		sum += n
	}
	emit(key, strconv.Itoa(sum))
	return nil
}

// Sequential counts words in-process, the reference for correctness tests.
func Sequential(splits []string) map[string]int {
	out := map[string]int{}
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			out[w]++
		}
	}
	return out
}

// Config assembles the MapReduce job configuration for a corpus already
// staged as data-units.
func Config(name string, inputIDs []string, reducers int) mapreduce.Config {
	return mapreduce.Config{
		Name:     name,
		InputIDs: inputIDs,
		Reducers: reducers,
		Map:      Map,
		Reduce:   Reduce,
		Combine:  Reduce,
	}
}
