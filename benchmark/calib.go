package main

import (
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration.
//
// The sandbox this benchmark runs in is a 2-vCPU VM on a shared host
// whose effective speed drifts by ±20 % over minutes: identical
// hermes.Deploy calls in one process read 51 ms in one 20-second window
// and 74 ms in another, and no quantile of a run escapes it (README,
// "Host-speed normalisation"). A fixed reference kernel run between
// the measured operations slows down by the same factor, so every
// timing is reported at reference speed: raw time ÷ (kernel time
// around then ÷ nominalKernelMS). The kernel is frozen — it shares no
// code with the library, so a change to the library cannot move it.

// nominalKernelMS is one kernel sample's time on this sandbox when the
// host is quiet; with it, reference-speed milliseconds read like the
// wall milliseconds of a quiet run.
const nominalKernelMS = 7.0

// kernelEvery is the least time between two kernel samples: dense
// enough to follow the host (three samples per slice did not: spread
// 0.05 against 0.016 for one every ~50 ms), sparse enough to cost
// under a sixth of the run.
const kernelEvery = 40 * time.Millisecond

// kernelNeighbours is how many samples nearest in time set an
// operation's factor (their median).
const kernelNeighbours = 15

type kernelNode struct {
	key  string
	next *kernelNode
	hits int
}

var kernelSink int

// runKernel is the reference work: it builds string keys, a map and a
// linked list, sorts, looks up and walks them — the allocation and
// access patterns the analysis and placement code is made of. An
// allocation-free kernel tracked the workload half as well (spread
// 0.031 against 0.016): host contention costs allocation-heavy code
// more.
func runKernel() {
	const n = 6000
	for rep := 0; rep < 4; rep++ {
		index := make(map[string]*kernelNode, n)
		keys := make([]string, 0, n)
		var head *kernelNode
		x := uint64(88172645463325252) // xorshift64: the same inputs every time
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := strconv.FormatUint(x%100000, 36)
			head = &kernelNode{key: k, next: head}
			index[k] = head
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sum := 0
		for _, k := range keys {
			nd := index[k]
			nd.hits++
			sum += len(nd.key)
		}
		for p := head; p != nil; p = p.next {
			sum += p.hits
		}
		kernelSink += sum
	}
}

// speedometer keeps the kernel samples of one pass.
type speedometer struct {
	t0   time.Time
	last time.Time
	at   []float64 // seconds since t0, ascending
	ms   []float64
}

func newSpeedometer() *speedometer { return &speedometer{t0: time.Now()} }

// now is the pass's clock, for stamping operation samples.
func (s *speedometer) now() float64 { return time.Since(s.t0).Seconds() }

// sample times the kernel once.
func (s *speedometer) sample() {
	t := time.Now()
	runKernel()
	s.last = time.Now()
	s.at = append(s.at, s.last.Sub(s.t0).Seconds())
	s.ms = append(s.ms, float64(s.last.Sub(t))/1e6)
}

// tick samples if the last sample is kernelEvery old. The measured
// loops call it between operations.
func (s *speedometer) tick() {
	if time.Since(s.last) >= kernelEvery {
		s.sample()
	}
}

// factor is the host's slowdown over the whole pass: 1 is the nominal
// quiet sandbox, 1.3 a host running everything 30 % slower.
func (s *speedometer) factor() float64 { return median(s.ms) / nominalKernelMS }

// factorAt is the slowdown around time t: the median of the
// kernelNeighbours samples nearest to it.
func (s *speedometer) factorAt(t float64) float64 {
	k := min(kernelNeighbours, len(s.ms))
	lo := sort.SearchFloat64s(s.at, t) - k/2
	lo = max(0, min(lo, len(s.ms)-k))
	return median(s.ms[lo:lo+k]) / nominalKernelMS
}
