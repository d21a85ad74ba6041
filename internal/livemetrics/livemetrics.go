// Package livemetrics instruments the live serving path. Where
// internal/metrics accumulates a simulation's results single-threaded
// under the virtual clock, this package's collectors are written from
// the wall clock's concurrent shard callbacks: every counter is an
// atomic per-disk cell (padded so neighbouring shards never share a
// cache line) and every latency observation lands in a lock-free
// log-linear histogram bucket plus a fixed ring of recent raw samples.
//
// The hot-path contract is zero allocations and no locks: an Observer
// callback does a handful of atomic adds and returns. Snapshots — the
// vodserver stats line, the STATS control-command dump, the repo
// benchmark's live-loopback report — pay the aggregation cost instead,
// off the serving path. TestCollectorHotPathAllocFree pins the
// contract, and cmd/bench's loopback cases (allocs/op gated against
// BENCH_ALLOCS.json) keep the instrumented serving path honest end to
// end.
package livemetrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBucketsPerOctave subdivides each power-of-two value range: 16
// sub-buckets bound the quantile error at ~6%.
const histBucketsPerOctave = 16

// histOctaves spans the histogram's dynamic range: with a 1µs unit,
// 40 octaves reach ~13 days. Values beyond clamp into the last bucket.
const histOctaves = 40

// histBuckets is the total bucket count: a linear run for the first two
// octaves (values 0..31 units) at indices 0..31, then 16 log-linear
// buckets per octave o >= 6 starting at index (o-4)*16.
const histBuckets = (histOctaves - 3) * histBucketsPerOctave

// recentSamples is the size of the recent-sample ring each histogram
// keeps alongside its buckets.
const recentSamples = 256

// Histogram is a lock-free log-linear histogram: recording is a single
// atomic increment into a bucket whose width is 1/16th of the value's
// octave, so quantiles are exact to ~6% across the full range. A ring
// buffer of the most recent raw samples rides along for exact
// small-count percentiles in stats dumps.
//
// Values are float64 multiples of the histogram's unit (for latencies,
// the convention is seconds with a 1e-6 unit — microsecond resolution
// at the bottom of the range). Record is safe for concurrent use;
// Snapshot may run concurrently with writers and sees a consistent-
// enough view for reporting (each bucket is read atomically).
type Histogram struct {
	unit    float64
	count   atomic.Int64
	sum     atomic.Int64 // in units, for the mean
	max     atomic.Int64 // in units
	next    atomic.Int64 // ring write cursor
	buckets [histBuckets]atomic.Int64
	recent  [recentSamples]atomic.Uint64 // math.Float64bits of the value
}

// NewHistogram returns a histogram whose bottom bucket is one unit wide
// (e.g. unit 1e-6 buckets seconds at microsecond resolution).
func NewHistogram(unit float64) *Histogram {
	if unit <= 0 {
		panic("livemetrics: non-positive histogram unit")
	}
	return &Histogram{unit: unit}
}

// bucketOf maps a value in units to its bucket index.
func bucketOf(n uint64) int {
	if n < 2*histBucketsPerOctave {
		return int(n)
	}
	o := bits.Len64(n) // n >= 32 → o >= 6
	// Top 5 bits of n: bit o-1 is implicit, the next 4 pick the
	// sub-bucket within the octave.
	sub := (n >> (o - 5)) & (histBucketsPerOctave - 1)
	idx := (o-4)*histBucketsPerOctave + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// boundOf reports the upper bound, in units, of bucket i — the value
// Quantile reports for ranks landing in it.
func boundOf(i int) float64 {
	if i < 2*histBucketsPerOctave {
		return float64(i)
	}
	o := i/histBucketsPerOctave + 4
	sub := i % histBucketsPerOctave
	return float64(uint64(histBucketsPerOctave+sub+1) << (o - 5))
}

// Record adds one observation. It never allocates and never blocks.
func (h *Histogram) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	n := uint64(v / h.unit)
	h.buckets[bucketOf(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(n))
	for {
		old := h.max.Load()
		if int64(n) <= old || h.max.CompareAndSwap(old, int64(n)) {
			break
		}
	}
	slot := (h.next.Add(1) - 1) % recentSamples
	h.recent[slot].Store(math.Float64bits(v))
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean reports the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) * h.unit / float64(n)
}

// Max reports the largest observation seen, rounded down to the unit.
func (h *Histogram) Max() float64 { return float64(h.max.Load()) * h.unit }

// Quantile reports an upper bound for the p'th quantile (p in [0, 1]):
// the upper edge of the bucket holding that rank, exact to the bucket's
// ~6% width. With no observations it reports 0.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return boundOf(i) * h.unit
		}
	}
	return h.Max()
}

// Recent returns up to recentSamples of the latest raw observations, in
// no particular order. The slice is freshly allocated — snapshot path
// only.
func (h *Histogram) Recent() []float64 {
	n := h.count.Load()
	if n > recentSamples {
		n = recentSamples
	}
	out := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, math.Float64frombits(h.recent[i].Load()))
	}
	return out
}
