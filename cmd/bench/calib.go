package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host-speed index.
//
// The benchmark runs on a few cores of a shared host whose speed drifts:
// the same binary on the same seed has read 1.6–2× apart between two
// quarter-hours of one afternoon, every workload moving together, while
// repetitions inside one run agree within a few percent. The drift is
// neighbours on the same socket — cache, memory and sibling-thread
// contention — not the guest's scheduler (process CPU time tracks wall
// time), so no statistic over one run's repetitions can remove it. What
// can: a fixed calibration kernel timed beside every repetition. Host-time
// metrics are divided by the index it gives, so they read as they would on
// a host on which the kernel takes its reference times.
//
// The kernel is the harness's own code and calls nothing of the program
// under test, so a change to the repository cannot move it. It has two
// parts, and the index is the geometric mean of their times over their
// reference times. Both were chosen to be indifferent to where the linker
// puts them: the first waits on memory, the second spreads over hundreds of
// runtime and library functions. Tight arithmetic loops were tried and
// dropped: one read 0.019 s in one build and 0.032 s in the next, by code
// alignment alone (README "Host-speed index").

// calibRefSeconds are the parts' times on the recording host in its fast
// state: the index reads ≈ 1 there and above 1 on a slower host.
var calibRefSeconds = [calibParts]float64{0.0900, 0.0870}

// calibWeights are the parts' shares of the index (they sum to 1): how
// much of what the host lost the workloads feel through each part (README
// "Host-speed index" has the sweep).
var calibWeights = [calibParts]float64{0.3, 0.7}

const (
	calibParts    = 2
	calibChaseLen = 4 << 20 // uint32 entries: 16 MiB, past any private cache
)

var (
	calibChase []uint32
	calibSink  uint64
)

// calibInit builds the chase buffer once: one random cycle through all of
// it (Sattolo's shuffle), so every load depends on the one before.
func calibInit() {
	if calibChase != nil {
		return
	}
	calibChase = make([]uint32, calibChaseLen)
	for i := range calibChase {
		calibChase[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(calibChase) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		calibChase[i], calibChase[j] = calibChase[j], calibChase[i]
	}
}

// hostReading is one timing of the calibration kernel: each part's time
// over its reference time.
type hostReading [calibParts]float64

// index is the host-speed index of a reading: the weighted geometric mean
// of its parts. 1 on the reference host, 1.5 on a host half again as slow.
func (r hostReading) index() float64 {
	logSum := 0.0
	for part, v := range r {
		logSum += calibWeights[part] * math.Log(v)
	}
	return math.Exp(logSum)
}

// around is the reading for a repetition that ran between readings a and
// b: their geometric mean, part by part.
func around(a, b hostReading) hostReading {
	var r hostReading
	for part := range r {
		r[part] = math.Sqrt(a[part] * b[part])
	}
	return r
}

// readHost times the calibration kernel once (≈ 0.2 s).
func readHost() hostReading {
	calibInit()
	var times hostReading

	// 0: dependent loads over 16 MiB — shared-cache and memory latency,
	// what neighbours on the socket take first.
	t := time.Now()
	p := uint32(0)
	for i := 0; i < 1_000_000; i++ {
		p = calibChase[p]
	}
	calibSink += uint64(p)
	times[0] = time.Since(t).Seconds()

	// 1: what ordinary Go code does — string keys into a map, short-lived
	// 1 KiB allocations, a sort — so the allocator and the collector too.
	t = time.Now()
	counts := make(map[string]int)
	ring := make([][]byte, 512)
	ints := make([]int, 0, 200_000)
	y := uint64(7)
	for i := 0; i < 200_000; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		counts[strconv.FormatUint(y>>50, 36)]++
		ring[i&511] = make([]byte, 1024)
		ints = append(ints, int(y>>40))
	}
	sort.Ints(ints)
	calibSink += uint64(len(counts) + ints[0] + len(ring[0]))
	times[1] = time.Since(t).Seconds()

	for part := range times {
		times[part] /= calibRefSeconds[part]
	}
	return times
}

// calibrator is the calibration kernel in a process of its own: the same
// binary started with -calibrate, answering one index per line asked. Its
// 16 MiB buffer and its garbage would otherwise sit in the measured
// process, doubling the collector's target and most of a small workload's
// peak RSS. While it computes, the harness waits on the pipe and does
// nothing else, so the kernel has the core the workload had.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-calibrate")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := c.read(); err != nil { // builds the buffer, warms the kernel
		c.stop()
		return nil, err
	}
	return c, nil
}

// read asks for one reading. A nil calibrator reads 1 on every part: the
// smoke test checks names and counts, not speeds.
func (c *calibrator) read() (hostReading, error) {
	var r hostReading
	if c == nil {
		for part := range r {
			r[part] = 1
		}
		return r, nil
	}
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return r, fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return r, fmt.Errorf("calibrator: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) != calibParts {
		return r, fmt.Errorf("calibrator: bad reading %q", line)
	}
	for part, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return r, fmt.Errorf("calibrator: bad reading %q", line)
		}
		r[part] = v
	}
	return r, nil
}

// stop ends the process — it exits when its input closes — and waits for it.
func (c *calibrator) stop() {
	if c == nil {
		return
	}
	c.in.Close()
	c.cmd.Wait()
}

// serveCalibration is the -calibrate mode: one reading per input line, the
// parts on one line.
func serveCalibration(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		r := readHost()
		if _, err := fmt.Fprintf(out, "%.9g %.9g\n", r[0], r[1]); err != nil {
			return err
		}
	}
	return sc.Err()
}
