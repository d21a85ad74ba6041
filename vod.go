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
// PaperEnvironment.
package vod

import (
	"io"
	"time"

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
	// Megabits returns v million bits.
	Megabits = si.Megabits
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

// Synthetic15K returns a faster, later-generation drive for
// generalization experiments: N = 319 for MPEG-1 streams.
func Synthetic15K() DiskSpec { return diskmodel.Synthetic15K() }

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

// Estimator produces k_log, the arrival-history ingredient of the dynamic
// scheme's prediction.
type Estimator = core.Estimator

// NewEstimator returns an estimator with history window tlog.
func NewEstimator(tlog Seconds) *Estimator { return core.NewEstimator(tlog) }

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

// Request is one user request in a trace.
type Request = workload.Request

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

// VCROptions adds VCR activity to generated workloads (Section 1: VCR
// actions are new requests).
type VCROptions = workload.VCROptions

// GenerateVCRWorkload is GenerateWorkload with VCR activity: sessions
// split into request chains at fast-forward/rewind instants.
func GenerateVCRWorkload(s ArrivalSchedule, lib *Library, seed int64, vcr VCROptions) Trace {
	return workload.GenerateVCR(s, lib, seed, vcr)
}

// SimConfig parameterizes one simulation run.
type SimConfig = sim.Config

// AdaptConfig parameterizes mid-stream bitrate adaptation
// (SimConfig.Adapt / EngineConfig.Adapt): the buffer-occupancy rate map
// that steps in-service streams down their title's ladder below the
// reservoir and back up under sustained bandwidth headroom. The zero
// value selects the engine defaults; see the field docs for the knobs.
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

// RunExperiment regenerates one of the paper's tables or figures by id
// ("table3", "fig6".."fig14", "table4", "table5", "ablation-naive",
// "ablation-gss-group").
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

// DybaseBufferSize evaluates the sizing of DYBASE, the paper's cited
// precursor (Information Sciences 137, 2001): the Theorem 1 recurrence
// without the inertia assumptions — k stays constant along the chain.
func DybaseBufferSize(p Params, dl Seconds, n, k int) Bits { return p.DybaseSize(dl, n, k) }

// ChunkLayout plans footnote 3's chunked video storage: fixed-size chunks
// with replication so every read up to MaxRead stays within one chunk.
type ChunkLayout = chunk.Layout

// NewChunkLayout plans the chunking of a video of the given size.
func NewChunkLayout(video, chunkSize, maxRead Bits) (*ChunkLayout, error) {
	return chunk.NewLayout(video, chunkSize, maxRead)
}

// ChunkAllocator places chunk extents on a disk (first fit, coalescing
// free list).
type ChunkAllocator = chunk.Allocator

// NewChunkAllocator returns an allocator over a disk of the given capacity.
func NewChunkAllocator(capacity Bits) *ChunkAllocator { return chunk.NewAllocator(capacity) }

// ReadTraceCSV parses a workload trace written by Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (Trace, error) { return workload.ReadCSV(r) }

// TraceStats summarizes a trace (Trace.Summarize).
type TraceStats = workload.Stats

// Clock abstracts time for the streaming engine. The paper's mechanism
// is clock-agnostic: the simulator drives it with a VirtualClock
// (discrete-event time) and a live server with a WallClock (scaled real
// time), and the engine behaves identically under both.
type Clock = engine.Clock

// ClockTimer is a cancelable pending callback on a Clock.
type ClockTimer = engine.Timer

// VirtualClock is a discrete-event clock: callbacks run in (time,
// scheduling-order) sequence as the clock jumps between events. It is
// what makes simulation runs deterministic and byte-identical.
type VirtualClock = engine.VirtualClock

// NewVirtualClock returns a virtual clock at time zero.
func NewVirtualClock() *VirtualClock { return engine.NewVirtualClock() }

// ClockDomain hands out the clock driving each disk. The paper's service
// model is per-disk, so the engine only needs each disk's own callbacks
// serialized: a VirtualClock is a single-shard domain (one deterministic
// event loop for all disks), a WallClock shards — one independent timer
// heap and lock per disk.
type ClockDomain = engine.ClockDomain

// WallClock is a scaled real-time ClockDomain: each disk gets its own
// WallShard, whose lock serializes that disk's engine callbacks, so a
// live multi-goroutine server satisfies per shard the single-threaded
// discipline the simulator gets for free — without cross-disk contention.
type WallClock = engine.WallClock

// WallShard is one disk's clock inside a WallClock: a timer heap with
// pooled, generation-checked timers, plus the engine lock for that disk. Drivers wrap every call into a disk in its shard's Do.
type WallShard = engine.WallShard

// NewWallClock returns a wall clock running at the given number of
// engine seconds per wall second.
func NewWallClock(scale float64) *WallClock { return engine.NewWallClock(scale) }

// NewWallClockTick is NewWallClock with an explicit tick, trading driver
// wake-ups against callback firing granularity.
func NewWallClockTick(scale float64, tick time.Duration) *WallClock {
	return engine.NewWallClockTick(scale, tick)
}

// Scheduler orders buffer services on one disk: the paper's three
// methods — Round-Robin with BubbleUp, Sweep*, GSS* (Section 2.2) —
// implement it, and NewEngine picks one by Method.
type Scheduler = engine.Scheduler

// Allocator sizes buffers and rules on admissions: the static scheme
// (Eq. 5 at N), the dynamic predict-and-enforce scheme (Theorem 1 +
// Assumption 1), or the naive strawman of Section 3.1.
type Allocator = engine.Allocator

// The engine's buffer allocation policies.
type (
	// StaticAllocator always allocates the full-load size (Section 2.3).
	StaticAllocator = engine.StaticAllocator
	// DynamicAllocator implements predict-and-enforce (Section 3): sizes
	// by Theorem 1, records inertia snapshots, defers violating
	// admissions per Fig. 5.
	DynamicAllocator = engine.DynamicAllocator
	// NaiveAllocator is the flawed strawman of Section 3.1.
	NaiveAllocator = engine.NaiveAllocator
)

// Observer receives engine instrumentation callbacks — admissions,
// deferrals (Fig. 5 enforcement), fills, k_log estimates and their
// resolutions, underruns, departures. The simulator's metrics and the
// live server's session plumbing are both Observers.
type Observer = engine.Observer

// NopObserver ignores every callback; embed it to observe selectively.
type NopObserver = engine.NopObserver

// ObserverList fans callbacks out to several observers in order.
type ObserverList = engine.Observers

// RejectReason says why the engine turned an arrival away: disk
// capacity (n = N, Eq. 1), the memory budget, or a stream rate the
// engine was not configured to size.
type RejectReason = engine.RejectReason

// Engine is the shared streaming runtime: per-disk service loops,
// deferral queues, and prediction bookkeeping, driven by any Clock.
type Engine = engine.System

// EngineConfig parameterizes NewEngine.
type EngineConfig = engine.Config

// EngineStream is one in-service request inside the engine.
type EngineStream = engine.Stream

// NewEngine builds the streaming runtime both drivers share: Simulate
// wraps it under a VirtualClock; cmd/vodserver drives it live under a
// WallClock.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }
