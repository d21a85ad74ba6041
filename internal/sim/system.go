// Package sim is the discrete-event simulation driver over the streaming
// runtime in internal/engine: it replays a workload.Trace under a virtual
// clock and collects the paper's measurements (latency by load, memory
// and concurrency series, estimation success) through the engine's
// Observer interface. All admission, allocation, and scheduling mechanics
// live in the engine; the simulator owns only the clock, the workload,
// the optional memory governor, and the result bookkeeping.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/share"
	"repro/internal/si"
	"repro/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Scheme selects the buffer allocation scheme under test.
	Scheme Scheme

	// Method selects the buffer scheduling method.
	Method sched.Method

	// Spec is the disk model; every disk in the system is identical.
	Spec diskmodel.Spec

	// CR is the streams' consumption rate — the default rate for every
	// request whose Rate field is zero, and the base rate the sizing
	// tables are built for.
	CR si.BitRate

	// Rates lists additional per-stream consumption rates the run may
	// carry (the catalog's ladder rungs, for multi-rate workloads).
	// Empty is the paper's single-rate regime, in which a request at any
	// rate but CR is rejected; see engine.Config.Rates.
	Rates []si.BitRate

	// Downgrade enables downgrading admission: an arrival that does not
	// fit at its requested rate steps down its title's ladder instead of
	// being rejected (engine.Config.Downgrade). Requires Rates.
	Downgrade bool

	// Adapt, when non-nil, enables mid-stream bitrate adaptation
	// (engine.Config.Adapt): started streams step down their title's
	// ladder when buffer occupancy falls inside the reservoir and back
	// up toward the requested rung on sustained bandwidth headroom.
	// Requires Rates; cannot combine with Share (a shared stream serves
	// many viewers at one rate and must not be re-rated under one
	// viewer's buffer signal). Switch counts and the delivered-rung time
	// distribution land in Result.SwitchesUp/SwitchesDown/RungSeconds.
	Adapt *engine.AdaptConfig

	// Alpha is the dynamic scheme's inertia slack (default 1).
	Alpha int

	// TLog is the arrival-history window for k estimation (default 40
	// minutes, the paper's Round-Robin choice).
	TLog si.Seconds

	// ChurnSafeAdmission selects the dynamic scheme's per-buffer
	// admission-budget enforcement (engine.Config.ChurnSafeAdmission):
	// required for the sizing guarantee when sessions churn within a
	// buffer's usage period, as in the large-N scale scenario.
	ChurnSafeAdmission bool

	// DeadlineAwareBubbleUp gates BubbleUp's immediate newcomer service
	// on the refill backlog's schedule (engine.Config.DeadlineAwareBubbleUp):
	// required at loads where deadline clusters form, as in the large-N
	// scale scenario.
	DeadlineAwareBubbleUp bool

	// RampAwarePlanning plans worst-case services at the admission
	// window's full load (engine.Config.RampAwarePlanning): required
	// when hard ramps deliver the predicted k admissions inside a
	// usage period, as in the fleet scenario.
	RampAwarePlanning bool

	// Library provides titles, placement, and the disk count.
	Library *catalog.Library

	// Trace is the workload to replay.
	Trace workload.Trace

	// MemoryBudget caps the formula-reserved memory across all disks;
	// zero disables memory admission (the latency experiments).
	MemoryBudget si.Bits

	// SampleEvery is the spacing of concurrency/memory samples
	// (default one minute).
	SampleEvery si.Seconds

	// Grace extends the run past the last arrival so in-flight requests
	// finish (default 30 minutes).
	Grace si.Seconds

	// Until cuts the run off early (0 = the trace's full horizon); used
	// to simulate just the ramp-and-peak window of the capacity runs.
	Until si.Seconds

	// PageSize accounts buffer memory in whole pages of this size
	// (0 = exact variable-length accounting, the paper's simplification).
	PageSize si.Bits

	// DisableBubbleUp runs the Round-Robin method as plain Fixed-Stretch
	// (Section 2.2.1): a newcomer waits for the rotation to reach it —
	// every in-service buffer refilled once after its arrival — instead
	// of being serviced right after the in-flight service. Exists for the
	// BubbleUp ablation; ignored by Sweep* and GSS*.
	DisableBubbleUp bool

	// Seed feeds the disks' rotational-delay streams.
	Seed int64

	// SizeTable, when non-nil, is handed to the engine as the precomputed
	// dynamic sizing table instead of rebuilding the O(N²) table per run.
	// It must have been built with core.NewTable under this config's
	// (Spec, Method, CR, Alpha); the engine verifies and rejects a
	// mismatched table. The table is immutable, so concurrent runs — the
	// experiment harness's replications — may share one.
	SizeTable *core.Table

	// Share, when non-nil, routes arrivals through a stream-sharing
	// layer (internal/share) with these options: hot titles' prefixes
	// are pinned in pool memory and concurrent viewers of one title
	// merge onto one disk stream. Engine-level Result fields then count
	// engine streams, not viewers; the viewer-level accounting is in
	// Result.Sharing.
	Share *share.Options

	// Observer, when set, receives every engine instrumentation callback
	// alongside the simulator's own result collector. Simulation results
	// are independent of observers; use it for tracing and debugging.
	Observer engine.Observer
}

func (c *Config) normalize() error {
	if c.Library == nil {
		return fmt.Errorf("sim: config needs a library")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Method.Validate(); err != nil {
		return err
	}
	if c.CR <= 0 || c.CR >= c.Spec.TransferRate {
		return fmt.Errorf("sim: consumption rate %v outside (0, TR)", c.CR)
	}
	switch c.Scheme {
	case Static, Dynamic, Naive, Knee:
	default:
		return fmt.Errorf("sim: unknown scheme %d", int(c.Scheme))
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.Alpha < 1 {
		return fmt.Errorf("sim: alpha %d must be >= 1", c.Alpha)
	}
	if c.TLog == 0 {
		c.TLog = si.Minutes(40)
	}
	if c.TLog < 0 {
		return fmt.Errorf("sim: negative TLog %v", c.TLog)
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = si.Minutes(1)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("sim: negative SampleEvery %v", c.SampleEvery)
	}
	if c.Grace == 0 {
		c.Grace = si.Minutes(30)
	}
	if c.Grace < 0 || c.Until < 0 || c.MemoryBudget < 0 || c.PageSize < 0 {
		return fmt.Errorf("sim: negative Grace, Until, MemoryBudget, or PageSize")
	}
	if c.Adapt != nil {
		if len(c.Rates) == 0 {
			return fmt.Errorf("sim: Adapt requires a multi-rate ladder (Config.Rates)")
		}
		if c.Share != nil {
			return fmt.Errorf("sim: Adapt cannot combine with Share (a shared stream serves many viewers at one rate)")
		}
	}
	for _, r := range c.Trace.Requests {
		if r.Disk < 0 || r.Disk >= c.Library.Disks() {
			return fmt.Errorf("sim: trace request %d targets disk %d of %d", r.ID, r.Disk, c.Library.Disks())
		}
	}
	return nil
}

// Result aggregates everything a run measures.
type Result struct {
	// LatencyByN buckets initial latency (seconds) by the number of
	// requests in service at arrival — Fig. 11's quantity.
	LatencyByN *metrics.ByN

	// Served counts requests that received their first data; Rejected
	// counts capacity rejections, RejectedMemory memory-admission
	// rejections, Deferrals admission deferral decisions (one per
	// blocked attempt), and MemoryStalls hard pool-budget stalls.
	Served, Rejected, RejectedMemory int
	Deferrals, MemoryStalls          int

	// Underruns and Starved aggregate buffer starvation across disks —
	// zero under the enforced dynamic scheme, positive for the naive one.
	Underruns int
	Starved   si.Seconds

	// Downgrades counts admissions that stepped down the title's ladder
	// (zero unless Config.Downgrade); StarvedStreams counts distinct
	// streams that underran at least once — the numerator of the
	// starvation probability StarvedStreams/Served.
	Downgrades     int
	StarvedStreams int

	// ServedByRate counts served streams by the consumption rate they
	// were admitted at — the delivered-rung distribution for multi-rate
	// runs. Nil for single-rate runs. Mid-stream adaptation does not
	// update it: it stays the admission-time distribution, while
	// RungSeconds carries the delivered picture.
	ServedByRate map[si.BitRate]int

	// SwitchesUp and SwitchesDown count mid-stream adaptation switches
	// (the engine's OnRateSwitch); zero unless Config.Adapt is set.
	SwitchesUp, SwitchesDown int

	// RungSeconds integrates watch time by delivered rung: each started
	// stream contributes the seconds it spent consuming at each rate,
	// across any mid-stream switches. Nil for single-rate runs. Its sum
	// is the run's total watch time; TimeWeightedRate is its mean.
	RungSeconds map[si.BitRate]si.Seconds

	// Estimates / EstimateHits give the successful-estimation probability
	// of Figs. 7b/8b; EstimatedK averages kc as in Figs. 7a/8a.
	Estimates, EstimateHits int64
	EstimatedK              metrics.Counter

	// ColdLatency and VCRLatency separate first-request startup from VCR
	// response time (Section 1 treats VCR actions as new requests; their
	// latency is the VCR responsiveness the paper wants improved).
	ColdLatency, VCRLatency metrics.Counter

	// Concurrency and Memory sample the running system (Figs. 6, 14);
	// Reserved samples the governor's formula reservation.
	Concurrency, Memory, Reserved metrics.Series

	// MaxConcurrent is the peak number of requests simultaneously in
	// service across all disks — Fig. 14's y-axis.
	MaxConcurrent int

	// PeakMemory is the largest actual pool usage observed (summed over
	// disks at fill times).
	PeakMemory si.Bits

	// DiskStats snapshots each disk's operation counters.
	DiskStats []diskmodel.ReadStats

	// Horizon is the simulated span the run covered (cutoff plus grace).
	Horizon si.Seconds

	// Sharing holds the sharing layer's viewer-level statistics; nil
	// when the run did not share (Config.Share unset).
	Sharing *share.Stats
}

// DiskUtilization reports the fraction of the run a disk spent busy
// (seeking, rotating, or transferring).
func (r *Result) DiskUtilization(disk int) float64 {
	if disk < 0 || disk >= len(r.DiskStats) || r.Horizon <= 0 {
		return 0
	}
	st := r.DiskStats[disk]
	return float64(st.TotalSeek+st.TotalRotate+st.TotalXfer) / float64(r.Horizon)
}

// SuccessRate reports the successful-estimation probability, or 1 when no
// estimates were checked (nothing to fail).
func (r *Result) SuccessRate() float64 {
	if r.Estimates == 0 {
		return 1
	}
	return float64(r.EstimateHits) / float64(r.Estimates)
}

// StarvationProb reports the fraction of served streams that underran at
// least once — the per-viewer QoE complement of the Underruns total.
func (r *Result) StarvationProb() float64 {
	if r.Served == 0 {
		return 0
	}
	return float64(r.StarvedStreams) / float64(r.Served)
}

// RateSwitches totals mid-stream switches in both directions.
func (r *Result) RateSwitches() int { return r.SwitchesUp + r.SwitchesDown }

// rungsSorted lists RungSeconds' rungs in ascending rate order, so the
// float accumulations below sum in a deterministic order — map iteration
// order would make golden reports differ run to run.
func (r *Result) rungsSorted() []si.BitRate {
	rates := make([]si.BitRate, 0, len(r.RungSeconds))
	for rate := range r.RungSeconds {
		rates = append(rates, rate)
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i] < rates[j] })
	return rates
}

// WatchSeconds totals delivered watch time across rungs (zero for
// single-rate runs, which do not keep the distribution).
func (r *Result) WatchSeconds() si.Seconds {
	var total si.Seconds
	for _, rate := range r.rungsSorted() {
		total += r.RungSeconds[rate]
	}
	return total
}

// TimeWeightedRate is the mean delivered rung weighted by watch time —
// Σ rate·seconds / Σ seconds over RungSeconds. This is the QoE layer's
// "what rate did viewers actually watch at", which admission-time
// distributions miss once mid-stream switching moves streams across
// rungs mid-viewing. Zero when no rung time was recorded.
func (r *Result) TimeWeightedRate() si.BitRate {
	var num float64
	var den si.Seconds
	for _, rate := range r.rungsSorted() {
		s := r.RungSeconds[rate]
		num += float64(rate) * float64(s)
		den += s
	}
	if den <= 0 {
		return 0
	}
	return si.BitRate(num / float64(den))
}

// QoEScore is the rebuffer-aware quality score the adaptation experiment
// ranks its arms by, normalized to the ladder's top rung: the
// time-weighted delivered rung as a fraction of top, minus the fraction
// of watch time spent rebuffering (arXiv:1108.0187's starvation cost
// dominates perceived quality, so it carries full weight), minus a 2%
// penalty per switch per served stream (the stability term of Huang et
// al.'s buffer-based adaptation). Zero when the run kept no rung
// distribution.
func (r *Result) QoEScore(top si.BitRate) float64 {
	watch := r.WatchSeconds()
	if watch <= 0 || top <= 0 {
		return 0
	}
	served := r.Served
	if served < 1 {
		served = 1
	}
	return float64(r.TimeWeightedRate())/float64(top) -
		float64(r.Starved)/float64(watch) -
		0.02*float64(r.RateSwitches())/float64(served)
}

// collector translates the engine's Observer callbacks into the Result the
// experiments consume. It is the simulator's entire measurement apparatus:
// the engine itself keeps no counters.
type collector struct {
	engine.NopObserver
	res        *Result
	concurrent int
	multi      bool // multi-rate run: keep the ServedByRate distribution
}

func (c *collector) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	c.concurrent++
	if c.concurrent > c.res.MaxConcurrent {
		c.res.MaxConcurrent = c.concurrent
	}
}

func (c *collector) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	c.concurrent--
	if st.Starved() {
		c.res.StarvedStreams++
	}
	if st.Started() {
		c.addRungTime(st.Rate(), now-st.RateSince())
	}
}

func (c *collector) OnRateSwitch(disk int, st *engine.Stream, from, to si.BitRate, now si.Seconds) {
	if to > from {
		c.res.SwitchesUp++
	} else {
		c.res.SwitchesDown++
	}
	// RateSince still reports the start of the epoch that ends here.
	c.addRungTime(from, now-st.RateSince())
}

// addRungTime accrues watch time at one delivered rung. Multi-rate runs
// only; single-rate runs keep Result.RungSeconds nil.
func (c *collector) addRungTime(rate si.BitRate, dur si.Seconds) {
	if !c.multi || dur <= 0 {
		return
	}
	if c.res.RungSeconds == nil {
		c.res.RungSeconds = make(map[si.BitRate]si.Seconds)
	}
	c.res.RungSeconds[rate] += dur
}

func (c *collector) OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	c.res.Downgrades++
}

func (c *collector) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	if reason == engine.RejectMemory {
		c.res.RejectedMemory++
	} else {
		c.res.Rejected++
	}
}

func (c *collector) OnDefer(disk int, now si.Seconds) { c.res.Deferrals++ }

func (c *collector) OnStall(disk int, now si.Seconds) { c.res.MemoryStalls++ }

func (c *collector) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	c.res.Served++
	if c.multi {
		if c.res.ServedByRate == nil {
			c.res.ServedByRate = make(map[si.BitRate]int)
		}
		c.res.ServedByRate[st.Rate()]++
	}
	lat := float64(now - st.Req().Arrival)
	c.res.LatencyByN.Add(st.NAtArrival(), lat)
	if st.Req().VCR {
		c.res.VCRLatency.Add(lat)
	} else {
		c.res.ColdLatency.Add(lat)
	}
}

func (c *collector) OnEstimate(disk int, kc int, size si.Bits, now si.Seconds) {
	c.res.EstimatedK.Add(float64(kc))
}

func (c *collector) OnEstimateResolved(disk int, hit bool, now si.Seconds) {
	c.res.Estimates++
	if hit {
		c.res.EstimateHits++
	}
}

// governor implements the shared-memory admission of the capacity
// experiments (Figs. 13–14) as an engine.Gate: each disk reserves the
// analytical minimum memory for its committed load, and an arrival is
// rejected when the total reservation would exceed the budget.
type governor struct {
	params    core.Params
	budget    si.Bits
	resv      []si.Bits
	total     si.Bits
	memStatic []si.Bits   // [n] for the static (and naive) schemes
	memDyn    [][]si.Bits // [n][k] for the dynamic scheme
}

func newGovernor(cfg *Config, p core.Params, disks int) *governor {
	g := &governor{params: p, budget: cfg.MemoryBudget, resv: make([]si.Bits, disks)}
	m, spec := cfg.Method, cfg.Spec
	if cfg.Scheme == Dynamic {
		g.memDyn = make([][]si.Bits, p.N+1)
		for n := 1; n <= p.N; n++ {
			g.memDyn[n] = make([]si.Bits, p.N-n+1)
			for k := 0; k <= p.N-n; k++ {
				g.memDyn[n][k] = memmodel.MinDynamic(p, m, spec, n, k)
			}
		}
	} else {
		// The naive scheme has no memory theory of its own; reserve
		// like the static scheme (conservative).
		g.memStatic = make([]si.Bits, p.N+1)
		for n := 1; n <= p.N; n++ {
			g.memStatic[n] = memmodel.MinStatic(p, m, spec, n)
		}
	}
	return g
}

// memFor reports the reservation a disk needs for count committed
// requests.
func (g *governor) memFor(d *engine.Disk, count int) si.Bits {
	if count <= 0 {
		return 0
	}
	if g.memDyn != nil {
		k := d.Estimate(count)
		if k > g.params.N-count {
			k = g.params.N - count
		}
		return g.memDyn[count][k]
	}
	return g.memStatic[count]
}

// TryAdmit attempts to reserve memory for one more request on d's disk.
func (g *governor) TryAdmit(d *engine.Disk) bool {
	newMem := g.memFor(d, d.Committed()+1)
	if g.total-g.resv[d.ID()]+newMem > g.budget {
		return false
	}
	g.total += newMem - g.resv[d.ID()]
	g.resv[d.ID()] = newMem
	return true
}

// Release refreshes a disk's reservation after a departure.
func (g *governor) Release(d *engine.Disk) {
	newMem := g.memFor(d, d.Committed())
	g.total += newMem - g.resv[d.ID()]
	g.resv[d.ID()] = newMem
}

// Run executes one simulation and returns its measurements.
//
// Run is safe to call concurrently from multiple goroutines: all mutable
// state (clock, disks, pools, RNG streams) is created per call, the
// Config is copied, and a *catalog.Library is immutable after
// construction, so independent runs may share one. Given equal configs —
// including Seed — concurrent runs produce identical Results; the
// experiment harness's parallel runner relies on both properties.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	clock := engine.NewVirtualClock()
	col := &collector{multi: len(cfg.Rates) > 0}
	var obs engine.Observer = col
	if cfg.Observer != nil {
		obs = engine.Observers{col, cfg.Observer}
	}
	sys, err := engine.New(engine.Config{
		Clock:                 clock,
		Allocator:             AllocatorFor(cfg.Scheme),
		Method:                cfg.Method,
		Spec:                  cfg.Spec,
		CR:                    cfg.CR,
		Rates:                 cfg.Rates,
		Downgrade:             cfg.Downgrade,
		Alpha:                 cfg.Alpha,
		TLog:                  cfg.TLog,
		ChurnSafeAdmission:    cfg.ChurnSafeAdmission,
		DeadlineAwareBubbleUp: cfg.DeadlineAwareBubbleUp,
		RampAwarePlanning:     cfg.RampAwarePlanning,
		Adapt:                 cfg.Adapt,
		Library:               cfg.Library,
		PageSize:              cfg.PageSize,
		DisableBubbleUp:       cfg.DisableBubbleUp,
		Seed:                  cfg.Seed,
		SizeTable:             cfg.SizeTable,
		Observer:              obs,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{LatencyByN: metrics.NewByN(sys.Params().N)}
	col.res = res

	var gov *governor
	if cfg.MemoryBudget > 0 {
		gov = newGovernor(&cfg, sys.Params(), sys.Disks())
		sys.SetGate(gov)
	}

	// The sharing layer fronts arrivals when configured; it attaches
	// itself to the system's observer fan-out.
	arrive := sys.OnArrival
	var layer *share.Layer
	if cfg.Share != nil {
		layer, err = share.New(share.Config{
			System:  sys,
			Library: cfg.Library,
			CR:      cfg.CR,
			Options: *cfg.Share,
		})
		if err != nil {
			return nil, err
		}
		arrive = layer.Submit
	}

	// Schedule arrivals.
	horizon := cfg.Trace.Schedule.Horizon()
	cutoff := horizon
	if cfg.Until > 0 && cfg.Until < cutoff {
		cutoff = cfg.Until
	}
	for _, req := range cfg.Trace.Requests {
		if req.Arrival > cutoff {
			break
		}
		req := req
		clock.Schedule(req.Arrival, func() { arrive(req) })
	}

	// Periodic sampler.
	end := cutoff + cfg.Grace
	var sample func()
	sample = func() {
		now := clock.Now()
		var usage si.Bits
		for i := 0; i < sys.Disks(); i++ {
			usage += sys.Disk(i).Pool().Usage(now)
		}
		res.Concurrency.Add(now, float64(col.concurrent))
		res.Memory.Add(now, float64(usage))
		if gov != nil {
			res.Reserved.Add(now, float64(gov.total))
		}
		if next := now + cfg.SampleEvery; next <= end {
			clock.Schedule(next, sample)
		}
	}
	clock.Schedule(0, sample)

	clock.Run(end)

	res.Horizon = end

	// Finalize: settle closed estimation windows and gather pool stats.
	// Streams still in service never fired OnDepart, so sweep them for
	// the starved-stream count too.
	for i := 0; i < sys.Disks(); i++ {
		d := sys.Disk(i)
		d.ResolveEstimates(clock.Now())
		st := d.Pool().Stats()
		res.Underruns += st.Underruns
		res.Starved += st.Starved
		res.PeakMemory += st.HighWater
		res.DiskStats = append(res.DiskStats, d.DiskStats())
		for _, s := range d.Streams() {
			if s.Starved() {
				res.StarvedStreams++
			}
			// Still in service at the horizon: close its rung epoch here,
			// mirroring the starved-stream sweep above.
			if s.Started() {
				col.addRungTime(s.Rate(), clock.Now()-s.RateSince())
			}
		}
	}
	if layer != nil {
		stats := layer.Stats()
		res.Sharing = &stats
	}
	return res, nil
}
