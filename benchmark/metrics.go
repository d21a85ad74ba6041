package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the contract in BENCHMARK.json, which
// TestBenchmarkJSONMatchesDefs holds to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off, on every workload. One
// vocabulary serves all four; the unit of work ("op") is the workload's
// own: a simulated buffer fill on paper-day and scale-peak, one
// regenerated experiment on figure-grid, one byte-verified viewing
// session on live-loopback.
var endToEnd = []metricDef{
	// Everything before the timed region, median of several repetitions.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Ops completed per host second, median over passes.
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.12},
	// What one user waits for: host milliseconds for one pass of the
	// fixed work on the simulated workloads; the client-measured WATCH
	// write to first frame header, median, on live-loopback.
	{Name: "wait_ms", Unit: "ms", Better: "lower", Bound: 0.12},
	// Process user+system CPU per op (server and in-process clients on
	// live-loopback). With throughput it gives figure-grid's parallel
	// efficiency.
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.12},
}

// The bounds are three times the widest interquartile spread usually
// seen over ten seeds on any workload (README.md has the tables), rounded
// up to leave room for the slow phases this shared machine drifts into. Heap
// bytes per op is not end to end: on paper-day it steps by a fifth from
// seed to seed with the sizes the engine's ring buffers double to, so
// it is reported per layer as process.alloc_b_per_op.

// stats summarizes one metric's samples within a run.
type stats struct {
	Median, Min, Max float64
	N                int
}

func summarize(v []float64) stats {
	if len(v) == 0 {
		return stats{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stats{Median: percentile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile reads quantile p from ascending samples by linear
// interpolation between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it, or 0 when even the 90th does
// not (fewer than 100 samples).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.90, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-p) >= 10-1e-6 { // 100 × (1 − 0.9) is 9.999… in floating point
			best = p
		}
	}
	return best
}

// meter reads the three host-side costs of a region: wall time, process
// CPU (user+system, all threads) and heap bytes allocated.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

type cost struct {
	Wall, CPU float64 // seconds
	Alloc     float64 // bytes
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: processCPU(), alloc: ms.TotalAlloc, wall: time.Now()}
}

func (m meter) stop() cost {
	wall := time.Since(m.wall)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{Wall: wall.Seconds(), CPU: (processCPU() - m.cpu).Seconds(), Alloc: float64(ms.TotalAlloc - m.alloc)}
}

// pass is one repetition of a workload's fixed work.
type pass struct {
	cost
	Ops float64
}

// measurePasses repeats the fixed work, in whole passes, for as close to
// the time budget as whole passes get: it starts another pass only while
// at least half of one (at the mean so far) still fits. A budget that
// two passes just miss, or just make, thus gives the same pass count.
func measurePasses(seconds float64, work func(i int) (ops float64, err error)) ([]pass, error) {
	var passes []pass
	start := time.Now()
	for i := 0; ; i++ {
		m := startMeter()
		ops, err := work(i)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass{cost: m.stop(), Ops: ops})
		spent := time.Since(start).Seconds()
		if spent+spent/float64(len(passes))/2 >= seconds {
			return passes, nil
		}
	}
}

// endToEndOf derives the per-pass end-to-end metrics (all but setup_s).
func endToEndOf(passes []pass) map[string]stats {
	var tput, wait, cpu []float64
	for _, p := range passes {
		tput = append(tput, p.Ops/p.Wall)
		wait = append(wait, p.Wall*1e3)
		cpu = append(cpu, p.CPU*1e6/p.Ops)
	}
	return map[string]stats{"throughput": summarize(tput), "wait_ms": summarize(wait), "cpu_us_per_op": summarize(cpu)}
}

// timeSetup repeats a workload's set-up — at least five times, and for a
// quarter of a second — and reports the median duration; the caller
// keeps what the last repetition built. The time floor matters for the
// sub-millisecond set-ups: a handful of repetitions all run in a fresh
// process's first milliseconds, on heap pages never touched before, and
// read 70 µs in one process and 125 µs in the next; a quarter second of
// them reaches the steady state past the first garbage collections.
func timeSetup(setup func() error) (stats, error) {
	var secs []float64
	for start := time.Now(); len(secs) < 5 || time.Since(start) < 250*time.Millisecond; {
		t0 := time.Now()
		if err := setup(); err != nil {
			return stats{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return summarize(secs), nil
}

// sink keeps probe and sampler results observable so the compiler cannot
// discard the measured calls.
var sink float64
