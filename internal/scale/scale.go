// Package scale runs the runtime far beyond the paper's 1997 environment:
// a server of modern nearline disks (2.4 Gbps sustained, N = 1599
// concurrent 1.5 Mbps streams per spindle — Eq. 1 at twenty times the
// Barracuda's transfer rate) spread over at least eight disks, driving
// each disk to many hundreds of concurrent streams — the stress case the
// engine's data structures were rebuilt for. At this depth the deadline
// index holds ~700 started streams per disk and Round-Robin's lazy-start
// rule reads all of their deadlines in ascending order on nearly every
// dispatch, so the index keeps that sequence sorted in place — a fill
// completion is a head advance plus a tail append, and the rule scans
// contiguous keys — rather than in a heap, whose order would have to be
// re-derived by a sort per dispatch (measured at 88 % of this scenario's
// run time; EXPERIMENTS.md "Benchmark trajectory"). The run stays on the
// deterministic VirtualClock — same seed, same trace, same Result, on
// any machine and under any worker count — so the scenario doubles as a
// reproducibility fixture an order of magnitude above the paper's N = 79.
//
// Scaling the paper's math up surfaces three regime effects the 1997
// environment never exposed, and the scenario exercises the engine
// mechanisms built for each:
//
// First, the memory knee. Theorem 1's recurrence anchors every size to
// the full-load boundary BS(N) through a product of load ratios m_i/N
// along the inertia chain. At N = 79 the product decays fast and the
// whole load range is usable; at N = 1599 the boundary size is ~8 GB per
// buffer and the product stops decaying once n passes roughly half of N
// — BS(800, 32) is already 55× BS(640, 16). The bandwidth limit of Eq. 1
// is therefore unreachable: memory economics cap a modern disk near 50%
// stream utilization. The scenario's default peak (700 per disk) sits
// just under that knee. Large alpha compounds the product (the chain's k
// grows by alpha−1 per step), which is why the scenario keeps the
// paper's alpha = 1.
//
// Second, replacement churn. At hundreds of streams a buffer's usage
// period spans many session endings, so departures are replaced *within*
// open windows. Fig. 5's concurrency-form admission rule
// (n+1 ≤ min_i(n_i+k_i)) never defers a replacement, yet every
// replacement's first fill consumes a service slot the in-service
// buffers were sized for — enough churn and the sizing guarantee
// underruns. The scenario therefore runs the engine's churn-safe
// enforcement (per-buffer admission budgets, core.AdmitBudget), which
// degenerates to the paper's rule when windows see no departures.
//
// Third, deadline clusters. Buffer sizes grow with load, so a refill
// generation's deadlines are spaced by the *previous* generation's
// service time; under a climbing ramp that spacing compresses below the
// current service time and the earliest-deadline slack check BubbleUp
// relies on stops protecting the backlog's tail. The scenario runs the
// engine's deadline-aware BubbleUp, which admits a newcomer's immediate
// fill only when the whole backlog schedule affords it.
package scale

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// crMbps is the scenario's stream consumption rate in Mbps: the paper's
// 1.5 Mbps MPEG-1 rate, kept so N scales purely with the disk.
const crMbps = 1.5

// alpha is the scenario's inertia slack — the paper's own alpha = 1,
// which at this scale is not just adequate but necessary. Theorem 1's
// recurrence walks a chain whose k grows by alpha−1 per step, and every
// size along the chain is anchored to the full-load boundary through a
// product of load ratios m_i/N; any alpha > 1 compounds that product
// toward the boundary's enormous BS(N) and moves the memory knee (see
// the package comment) to lower n. alpha = 1 keeps the chain's k flat,
// exactly as the paper ran it.
const alpha = 1

// Config parameterizes a large-N scenario run. The zero value (after
// normalization) is the full scenario: 8 disks, two-hour titles, a
// 24-hour Zipf day aimed at 700 concurrent streams per disk at peak.
type Config struct {
	// Disks is the number of disks; at least 8 (the scenario exists to
	// exercise multi-disk scale). Default 8.
	Disks int

	// TitlesPerDisk is the catalog size per disk. Default 16.
	TitlesPerDisk int

	// TitleLength is every title's playback length (workload.Generate
	// draws viewing uniform in [0, min(MaxViewing, length)]). Default
	// two hours — the paper's movie length, giving a one-hour mean
	// viewing time: long enough that the arrival rate sustaining the
	// peak stays inside the sizing recurrence's stable basin (arrivals
	// per usage period feed back into buffer sizes; see the package
	// comment), short enough that peak windows still see replacement
	// churn.
	TitleLength si.Seconds

	// PeakPerDisk is the concurrent-stream level per disk the workload
	// aims at during the peak slot, sized by the M/G/∞ heuristic
	// (concurrency ≈ arrival rate × mean viewing time). Default 700 —
	// just under the modern disk's memory knee, the economical limit the
	// sizing recurrence imposes well before Eq. 1's bandwidth limit
	// N = 1599 (see the package comment).
	PeakPerDisk int

	// Horizon is the arrival day's length. Default 24 h.
	Horizon si.Seconds

	// Theta is the Zipf time-of-day skew (0 peaked, 1 uniform).
	// Default 0.5.
	Theta float64

	// Method is the buffer scheduling method. Default Round-Robin.
	Method sched.Kind

	// Seed derives the workload and simulation random streams.
	Seed int64

	// SizeTable, when non-nil, is the shared precomputed sizing table
	// for this scenario's (spec, method, CR, alpha). At N = 1599 the
	// table build is the dominant per-run setup cost, so replications
	// share one (see Env to build it).
	SizeTable *core.Table

	// Observer, when set, receives every engine instrumentation callback
	// alongside the scenario's own per-disk tallies. Results are
	// independent of observers.
	Observer engine.Observer

	// Quick shrinks the scenario for tests: one peak half-hour slot
	// instead of a day, and a short grace. The load still reaches the
	// full PeakPerDisk level — high load is cheap here, because buffers
	// grow with n and refills are what cost events — so Quick exercises
	// the same large-n regime.
	Quick bool
}

func (c *Config) normalize() error {
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Disks < 8 {
		return fmt.Errorf("scale: scenario needs at least 8 disks, got %d", c.Disks)
	}
	if c.TitlesPerDisk <= 0 {
		c.TitlesPerDisk = 16
	}
	if c.TitleLength == 0 {
		c.TitleLength = si.Hours(2)
	}
	if c.TitleLength < 0 {
		return fmt.Errorf("scale: negative title length %v", c.TitleLength)
	}
	if c.PeakPerDisk == 0 {
		c.PeakPerDisk = 700
	}
	if c.Horizon == 0 {
		c.Horizon = si.Hours(24)
		if c.Quick {
			c.Horizon = si.Minutes(30)
		}
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	spec := Spec()
	if n := spec.MaxConcurrent(si.Mbps(crMbps)); c.PeakPerDisk >= n {
		return fmt.Errorf("scale: peak %d per disk at or above capacity N = %d", c.PeakPerDisk, n)
	}
	return nil
}

// Spec returns the scenario's disk model.
func Spec() diskmodel.Spec { return diskmodel.ModernNearline() }

// Env describes the derived scenario environment.
type Env struct {
	Spec diskmodel.Spec
	CR   si.BitRate
	N    int // per-disk concurrent-stream capacity

	// Alpha is the inertia slack the scenarios size with; together with
	// Spec and CR it names their sizing table.
	Alpha int
}

// Environment derives the scenario's fixed environment: the modern
// nearline spec and its Eq. 1 capacity for 1.5 Mbps streams.
func Environment() Env {
	spec := Spec()
	cr := si.Mbps(crMbps)
	return Env{Spec: spec, CR: cr, N: spec.MaxConcurrent(cr), Alpha: alpha}
}

// NewSizeTable builds the scenario's dynamic sizing table for sharing
// across replications via Config.SizeTable.
func NewSizeTable(method sched.Kind) *core.Table {
	env := Environment()
	p := core.Params{TR: env.Spec.TransferRate, CR: env.CR, N: env.N, Alpha: alpha}
	m := sched.NewMethod(method)
	return core.NewTable(p, m.DLModel(env.Spec))
}

// DiskLoad is one disk's deterministic tally over a run.
type DiskLoad struct {
	// Served counts streams that received their first data.
	Served int

	// Rejected counts arrivals turned away (capacity; the scenario
	// runs no memory gate).
	Rejected int

	// Peak is the largest number of streams simultaneously in service.
	Peak int
}

// Result is one scenario run's outcome.
type Result struct {
	// Sim is the underlying simulation result (global latency,
	// concurrency and memory series, disk statistics).
	Sim *sim.Result

	// Env is the derived environment the run used.
	Env Env

	// Requests is the number of requests the generated day contained.
	Requests int

	// PerDisk tallies each disk, indexed by disk id.
	PerDisk []DiskLoad

	// PeakTotal is the largest number of streams in service across the
	// whole server at once.
	PeakTotal int
}

// diskObserver tallies per-disk loads through the engine's callbacks.
// The scenario runs under a VirtualClock — a single-shard domain whose
// callbacks all execute on one event loop — so plain counters suffice
// and the tallies are deterministic.
type diskObserver struct {
	engine.NopObserver
	loads   []DiskLoad
	current []int
	total   int
	peak    int
}

func (o *diskObserver) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	o.current[disk]++
	if o.current[disk] > o.loads[disk].Peak {
		o.loads[disk].Peak = o.current[disk]
	}
	o.total++
	if o.total > o.peak {
		o.peak = o.total
	}
}

func (o *diskObserver) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	o.current[disk]--
	o.total--
}

func (o *diskObserver) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	o.loads[disk].Served++
}

func (o *diskObserver) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	o.loads[disk].Rejected++
}

// Run executes one large-N scenario run. It is safe to call concurrently
// from multiple goroutines — all mutable state is per-call, and a shared
// Config.SizeTable is immutable — and, given equal configs, returns
// identical Results regardless of scheduling.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	env := Environment()
	length := cfg.TitleLength
	lib, err := catalog.New(catalog.Config{
		Titles:          cfg.TitlesPerDisk * cfg.Disks,
		Disks:           cfg.Disks,
		Spec:            env.Spec,
		PopularityTheta: 0.271,
		Video: func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Length = length
			return v
		},
		// Zipf popularity falls with the title id, so a plain round-robin
		// deal would stack every rank-1-of-its-row title on disk 0 and
		// skew per-disk load ~2x. Deal titles in popularity order onto
		// the least-loaded disk instead (greedy LPT) — the
		// popularity-aware placement a multi-disk VoD server needs, and
		// deterministic so runs stay reproducible.
		Policy: catalog.LeastLoaded{},
	})
	if err != nil {
		return nil, err
	}

	// Size the day so the peak slot's M/G/∞ concurrency hits the target:
	// peak rate = total·w_max/slot and concurrency ≈ rate × mean viewing,
	// so total = target · slot / (w_max · mean viewing).
	const slot = si.Seconds(30 * 60)
	nSlots := int(float64(cfg.Horizon) / float64(slot))
	wMax := catalog.ZipfWeights(nSlots, cfg.Theta)[0]
	maxViewing := workload.MaxViewing
	if length < maxViewing {
		maxViewing = length
	}
	meanViewing := float64(maxViewing) / 2
	target := float64(cfg.PeakPerDisk * cfg.Disks)
	total := target * float64(slot) / (wMax * meanViewing)
	// A horizon shorter than the viewing bound never reaches the M/G/∞
	// steady state: with viewing uniform on [0, V] and a constant rate,
	// concurrency after time T is λ·(T − T²/2V), not the steady λ·V/2.
	// Scale the day up so the ramp still reaches the target (Quick's
	// single peak slot is the case that needs it).
	if T, V := float64(cfg.Horizon), float64(maxViewing); T < V {
		total *= (V / 2) / (T - T*T/(2*V))
	}
	peak := si.Hours(9)
	if peak > cfg.Horizon {
		peak = cfg.Horizon * 3 / 8
	}
	day := workload.ZipfDay(total, cfg.Theta, peak, cfg.Horizon)
	trace := workload.Generate(day, lib, cfg.Seed)

	obs := &diskObserver{
		loads:   make([]DiskLoad, cfg.Disks),
		current: make([]int, cfg.Disks),
	}
	var simObs engine.Observer = obs
	if cfg.Observer != nil {
		simObs = engine.Observers{obs, cfg.Observer}
	}
	simCfg := sim.Config{
		Scheme:                sim.Dynamic,
		Method:                sched.NewMethod(cfg.Method),
		Spec:                  env.Spec,
		CR:                    env.CR,
		Alpha:                 alpha,
		ChurnSafeAdmission:    true,
		DeadlineAwareBubbleUp: true,
		Library:               lib,
		Trace:                 trace,
		Seed:                  cfg.Seed ^ 0x5ca1ab1e,
		SampleEvery:           si.Minutes(10),
		SizeTable:             cfg.SizeTable,
		Observer:              simObs,
	}
	if cfg.Quick {
		simCfg.Grace = si.Minutes(5)
		simCfg.SampleEvery = si.Minutes(2)
	}
	res, err := sim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Sim:       res,
		Env:       env,
		Requests:  len(trace.Requests),
		PerDisk:   obs.loads,
		PeakTotal: obs.peak,
	}, nil
}
