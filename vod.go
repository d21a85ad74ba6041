// Package vod is a library-quality reproduction of "Dynamic Buffer
// Allocation in Video-on-Demand Systems" (Lee, Whang, Moon, Han, Song;
// ACM SIGMOD 2001, extended in IEEE TKDE 15(6) 2003).
//
// A VOD server streams constant-rate video from disk through per-request
// memory buffers refilled once per service period. The buffer must hold
// what its viewer consumes until the next refill, so its minimum size
// depends on how many buffers the server fills per period. The classic
// static scheme sizes every buffer for the fully loaded server; this
// package implements the paper's dynamic scheme, which sizes each buffer
// for the current load plus a bounded prediction of near-future load and
// enforces the prediction at runtime by deferring violating admissions
// (predict-and-enforce). The result is dramatically lower initial latency
// and memory use at partial load, with identical behaviour at full load.
//
// The package exposes four layers:
//
//   - Sizing and admission analysis: StaticBufferSize, DynamicBufferSize
//     (Theorem 1), NewSizeTable, WorstInitialLatency (Eqs. 2–4),
//     MinMemoryDynamic/MinMemoryStatic (Theorems 2–4).
//   - The modelled substrate: DiskSpec (seek curve, Eq. 7), Library
//     (contiguous video layout, Zipf popularity), workload generation
//     (Poisson arrivals under a Zipf time-of-day profile).
//   - A discrete-event simulation of a multi-disk VOD server running any
//     of the three buffer scheduling methods (Round-Robin/BubbleUp,
//     Sweep*, GSS*) under the static, dynamic, or naive allocation
//     scheme: Simulate.
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation: RunExperiment, Experiments.
//
// The canonical environment — a Seagate Barracuda 9LP disk serving
// 1.5 Mbps MPEG-1 streams, N = 79 — is available via Barracuda9LP and
// PaperEnvironment. The streaming runtime the simulator and the live
// server share stays internal; Simulate is its library entry point.
package vod

import (
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/latency"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Quantity types. All durations are in seconds, data in bits, and rates
// in bits per second; the constructors below build them readably.
type (
	// Seconds is a duration in seconds.
	Seconds = si.Seconds
	// Bits is a data quantity in bits.
	Bits = si.Bits
	// BitRate is a data rate in bits per second.
	BitRate = si.BitRate
)

// Quantity constructors.
var (
	// Mbps returns a rate of v million bits per second.
	Mbps = si.Mbps
	// Megabytes returns v million bytes, as bits.
	Megabytes = si.Megabytes
	// Gigabytes returns v billion bytes, as bits.
	Gigabytes = si.Gigabytes
	// Minutes returns a duration of v minutes.
	Minutes = si.Minutes
	// Hours returns a duration of v hours.
	Hours = si.Hours
)

// DiskSpec describes a disk drive: capacity, transfer rate, and the
// two-piece seek-time curve of Ruemmler & Wilkes (Eq. 7).
type DiskSpec = diskmodel.Spec

// Barracuda9LP returns the paper's evaluation disk (Table 3): a Seagate
// Barracuda 9LP with 120 Mbps minimum transfer rate, 6000 cylinders, and
// N = 79 for MPEG-1 streams.
func Barracuda9LP() DiskSpec { return diskmodel.Barracuda9LP() }

// Method is a buffer scheduling method instance.
type Method = sched.Method

// MethodKind identifies one of the three scheduling methods.
type MethodKind = sched.Kind

// The three buffer scheduling methods the paper validates against.
const (
	// RoundRobin services buffers in allocation order with the BubbleUp
	// refinement: newcomers are serviced right after the in-flight
	// service completes.
	RoundRobin = sched.RoundRobin
	// Sweep services buffers in disk-position order (Sweep*).
	Sweep = sched.Sweep
	// GSS groups buffers, sweeping within groups and rotating across
	// them (GSS*), with the paper's group size of 8 by default.
	GSS = sched.GSS
)

// NewMethod returns a Method of the given kind with the paper's
// parameters (g = 8 for GSS*).
func NewMethod(k MethodKind) Method { return sched.NewMethod(k) }

// ParseMethod maps a method name ("rr", "sweep", "gss", or the printed
// forms) to its kind.
func ParseMethod(s string) (MethodKind, error) { return sched.ParseKind(s) }

// Scheme selects the buffer allocation scheme.
type Scheme = sim.Scheme

// The buffer allocation schemes.
const (
	// Static always allocates the full-load buffer size (Section 2.3).
	Static = sim.Static
	// Dynamic allocates by Theorem 1 with runtime enforcement of the
	// inertia assumptions — the paper's contribution (Section 3).
	Dynamic = sim.Dynamic
	// Naive is the flawed strawman of Section 3.1: Eq. 5 at n+k with no
	// recurrence and no enforcement. It underruns under rising load.
	Naive = sim.Naive
)

// ParseScheme maps "static", "dynamic", or "naive" to its Scheme.
func ParseScheme(s string) (Scheme, error) { return sim.ParseScheme(s) }

// Params carries the sizing constants: transfer rate TR, consumption rate
// CR, capacity N, and the inertia slack Alpha.
type Params = core.Params

// DeriveN returns the largest number of concurrent streams a disk with
// transfer rate tr can guarantee at consumption rate cr (Eq. 1).
func DeriveN(tr, cr BitRate) int { return core.DeriveN(tr, cr) }

// PaperEnvironment returns the paper's full evaluation environment:
// the Barracuda spec, the 1.5 Mbps consumption rate, and Params with
// N = 79 and alpha = 1.
func PaperEnvironment() (DiskSpec, BitRate, Params) {
	env := experiments.PaperEnv()
	return env.Spec, env.CR, env.Params
}

// StaticBufferSize evaluates Eq. 5: the minimum buffer size supporting n
// requests under per-service worst disk latency dl. The static scheme
// allocates this at n = N regardless of load.
func StaticBufferSize(p Params, dl Seconds, n int) Bits { return p.StaticSize(dl, n) }

// DynamicBufferSize evaluates Theorem 1: the buffer size the dynamic
// scheme allocates with n requests in service and k predicted additional
// requests, under per-service worst disk latency dl.
func DynamicBufferSize(p Params, dl Seconds, n, k int) Bits { return p.DynamicSize(dl, n, k) }

// SizeTable holds the precomputed O(N²) table of dynamic buffer sizes
// Section 3.3 recommends for runtime allocation.
type SizeTable = core.Table

// NewSizeTable precomputes DynamicBufferSize for every (n, k) under a
// method's latency model against the given disk.
func NewSizeTable(p Params, m Method, spec DiskSpec) *SizeTable {
	return core.NewTable(p, m.DLModel(spec))
}

// WorstDiskLatency returns a method's per-service worst disk latency with
// n requests in service (Section 2.2).
func WorstDiskLatency(m Method, spec DiskSpec, n int) Seconds { return m.WorstDL(spec, n) }

// WorstInitialLatency evaluates the method's worst-case initial latency
// (Eqs. 2–4) for buffers of the given size with n requests in service.
func WorstInitialLatency(m Method, spec DiskSpec, size Bits, n int) Seconds {
	return latency.WorstFor(m, spec, size, n)
}

// MinMemoryDynamic evaluates Theorems 2–4: the minimum memory supporting
// n requests with k predicted additional requests under the dynamic
// scheme and the given method.
func MinMemoryDynamic(p Params, m Method, spec DiskSpec, n, k int) Bits {
	return memmodel.MinDynamic(p, m, spec, n, k)
}

// MinMemoryStatic is the static scheme's counterpart of MinMemoryDynamic.
func MinMemoryStatic(p Params, m Method, spec DiskSpec, n int) Bits {
	return memmodel.MinStatic(p, m, spec, n)
}

// AdmissionBook tracks, per in-service request, the (n_i, k_i) snapshot
// recorded at its last allocation — the state the predict-and-enforce
// strategy checks admissions against.
type AdmissionBook = core.Book

// Allocation is one inertia snapshot: requests in service and predicted
// additional requests at allocation time.
type Allocation = core.Allocation

// NewAdmissionBook returns an empty book.
func NewAdmissionBook() *AdmissionBook { return core.NewBook() }

// Admit reports whether a new request may be admitted under Assumption 1
// (Fig. 5): with it admitted, the request count must stay within every
// in-service buffer's sizing assumption, and within the capacity nmax.
func Admit(b *AdmissionBook, n, nmax int) bool { return core.Admit(b, n, nmax) }

// Library is a video catalog placed contiguously across the disks of a
// server, with Zipf popularity.
type Library = catalog.Library

// Video is one title.
type Video = catalog.Video

// LibraryConfig parameterizes NewLibrary.
type LibraryConfig = catalog.Config

// NewLibrary builds a library. See LibraryConfig for the knobs; the zero
// Video function yields the paper's 120-minute 1.5 Mbps MPEG-1 titles.
func NewLibrary(cfg LibraryConfig) (*Library, error) { return catalog.New(cfg) }

// MPEG1Video returns the paper's canonical title: a 120-minute MPEG-1
// video at 1.5 Mbps. The usual starting point for a LibraryConfig.Video
// factory that decorates titles — say, with a bitrate Ladder.
func MPEG1Video(id int) Video { return catalog.MPEG1Video(id) }

// Trace is a generated workload: request arrivals with titles and
// viewing times.
type Trace = workload.Trace

// ArrivalSchedule is a piecewise-constant arrival-rate profile.
type ArrivalSchedule = workload.Schedule

// NewArrivalSchedule builds a schedule directly from per-slot arrival
// rates (in requests per second).
func NewArrivalSchedule(slotLen Seconds, rates []float64) ArrivalSchedule {
	return workload.NewSchedule(slotLen, rates)
}

// ZipfDaySchedule builds the paper's arrival profile: total expected
// arrivals over the horizon, spread over 30-minute slots whose shares
// follow Zipf(theta) proximity to the peak time (theta 0 = concentrated,
// 1 = uniform).
func ZipfDaySchedule(total, theta float64, peak, horizon Seconds) ArrivalSchedule {
	return workload.ZipfDay(total, theta, peak, horizon)
}

// GenerateWorkload draws a Poisson trace under the schedule, picking
// titles by library popularity and viewing times uniform in [0, 120 min].
func GenerateWorkload(s ArrivalSchedule, lib *Library, seed int64) Trace {
	return workload.Generate(s, lib, seed)
}

// SimConfig parameterizes one simulation run.
type SimConfig = sim.Config

// AdaptConfig parameterizes mid-stream bitrate adaptation
// (SimConfig.Adapt): the buffer-occupancy rate map that steps in-service
// streams down their title's ladder below the reservoir and back up under
// sustained bandwidth headroom. The zero value selects the engine
// defaults; see the field docs for the knobs.
type AdaptConfig = engine.AdaptConfig

// SimResult carries a run's measurements: latency by load level,
// admission counters, starvation, estimation quality, and the sampled
// concurrency and memory series.
type SimResult = sim.Result

// Simulate executes one discrete-event simulation of the configured VOD
// server replaying the configured trace. Simulate is safe to call
// concurrently; runs with equal configs produce identical results.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateReplications runs reps independent simulations across at most
// workers goroutines (workers <= 0 means GOMAXPROCS), building each run's
// configuration with build — typically a fresh trace and seed per
// replication derived with MixSeed. Results are returned in replication
// order regardless of goroutine scheduling.
func SimulateReplications(build func(rep int) (SimConfig, error), reps, workers int) ([]*SimResult, error) {
	return experiments.SimulateReplications(build, reps, workers)
}

// ReplicationStats summarizes replications of one measurement: count,
// mean, sample standard deviation, and the half-width of the 95%
// confidence interval of the mean.
type ReplicationStats = experiments.Stats

// SummarizeReplications computes replication statistics over samples.
func SummarizeReplications(samples []float64) ReplicationStats {
	return experiments.Summarize(samples)
}

// MixSeed derives a deterministic 63-bit seed from a base seed and run
// coordinates (a splitmix64 mixing chain): the seeding scheme the parallel
// experiment runner uses so that every run's random streams depend only on
// the run's position in the experiment grid, never on execution order.
func MixSeed(base int64, coords ...int64) int64 { return experiments.MixSeed(base, coords...) }

// ExperimentOptions tunes the experiment harness.
type ExperimentOptions = experiments.Options

// ExperimentReport is one experiment's regenerated series and tables.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one of the paper's tables or figures, or one
// of the extension scenarios, by id; Experiments lists the ids.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(id, opt)
}

// Experiments lists the available experiment ids in the paper's order.
func Experiments() []string { return experiments.IDs() }

// RateSet supports variable display rates per footnote 2: a family of
// rates with their unit (GCD) rate, and adapters producing sizing
// parameters under the max-rate or unit-rate method.
type RateSet = core.RateSet

// NewRateSet validates a family of display rates.
func NewRateSet(rates []BitRate) (*RateSet, error) { return core.NewRateSet(rates) }

// ChunkLayout plans footnote 3's chunked video storage: fixed-size chunks
// with replication so every read up to MaxRead stays within one chunk.
type ChunkLayout = chunk.Layout

// NewChunkLayout plans the chunking of a video of the given size.
func NewChunkLayout(video, chunkSize, maxRead Bits) (*ChunkLayout, error) {
	return chunk.NewLayout(video, chunkSize, maxRead)
}
