package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simDigest is the part of a simulation's outcome a run must reproduce:
// identical from pass to pass, and identical between sim.Run and the
// traced replay of the same configuration.
type simDigest struct {
	Served, Rejected, Deferrals int
	Fills                       int64
	Underruns, StarvedStreams   int
	MaxConcurrent               int
	PeakMemory                  si.Bits
	LatencyMean                 float64 // simulated seconds
}

func (d simDigest) String() string {
	return fmt.Sprintf("served=%d rejected=%d deferrals=%d fills=%d underruns=%d starved=%d peak=%d mem=%.0fb lat=%.9fs",
		d.Served, d.Rejected, d.Deferrals, d.Fills, d.Underruns, d.StarvedStreams, d.MaxConcurrent, float64(d.PeakMemory), d.LatencyMean)
}

func digestOf(res *sim.Result) simDigest {
	d := simDigest{
		Served: res.Served, Rejected: res.Rejected + res.RejectedMemory, Deferrals: res.Deferrals,
		Underruns: res.Underruns, StarvedStreams: res.StarvedStreams,
		MaxConcurrent: res.MaxConcurrent, PeakMemory: res.PeakMemory,
	}
	for _, st := range res.DiskStats {
		d.Fills += int64(st.Reads)
	}
	d.LatencyMean, _ = res.LatencyByN.GrandMean()
	return d
}

// failures counts the offered requests the simulated server never
// served. Underruns are a statistic of the modelled design, not a failed
// operation of the simulator: at some seeds the paper's day under GSS*
// has one to three, and the digest carries them so a run still has to
// reproduce them exactly.
func (d simDigest) failures() int { return d.Rejected }

// replayCollector gathers the digest through the observer interface, the
// way sim's own collector does.
type replayCollector struct {
	engine.NopObserver
	d          simDigest
	concurrent int
	latency    *metrics.ByN
}

func (c *replayCollector) OnAdmit(int, *engine.Stream, si.Seconds) {
	c.concurrent++
	c.d.MaxConcurrent = max(c.d.MaxConcurrent, c.concurrent)
}

func (c *replayCollector) OnDepart(_ int, st *engine.Stream, _ si.Seconds) {
	c.concurrent--
	if st.Starved() {
		c.d.StarvedStreams++
	}
}

func (c *replayCollector) OnReject(int, workload.Request, engine.RejectReason, si.Seconds) {
	c.d.Rejected++
}
func (c *replayCollector) OnDefer(int, si.Seconds) { c.d.Deferrals++ }

func (c *replayCollector) OnStart(_ int, st *engine.Stream, now si.Seconds) {
	c.d.Served++
	c.latency.Add(st.NAtArrival(), float64(now-st.Req().Arrival))
}

// add folds another run's digest into a workload total: counts and
// simulated sums add up, peak concurrency takes the maximum.
func (d *simDigest) add(o simDigest) {
	d.Served += o.Served
	d.Rejected += o.Rejected
	d.Deferrals += o.Deferrals
	d.Fills += o.Fills
	d.Underruns += o.Underruns
	d.StarvedStreams += o.StarvedStreams
	d.MaxConcurrent = max(d.MaxConcurrent, o.MaxConcurrent)
	d.PeakMemory += o.PeakMemory
	d.LatencyMean += o.LatencyMean
}

// replayed accumulates, over a workload's replays, what they yield
// beyond the spans themselves.
type replayed struct {
	total       simDigest
	counts      observerCounts
	fired       int64 // clock callbacks run
	nextNil     int64 // Scheduler.Next calls with nothing to service
	admitDenied int64
	utilization float64 // busiest disk's busy share of its run's horizon
}

// replay runs cfg the way sim.Run does — same engine configuration,
// arrivals scheduled up front, the periodic usage sampler, the same
// finalization — but with the clock domain, allocator, scheduler factory
// and observer interposed, which sim.Run does not let a caller do. It
// supports what the benchmark's simulated workloads use (no sharing
// layer, no memory governor); sim.replay_equal holds it to sim.Run's
// result. It returns the run's digest and adds the run to acc.
func replay(cfg sim.Config, t *tracer, acc *replayed) (simDigest, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.TLog == 0 {
		cfg.TLog = si.Minutes(40)
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = si.Minutes(1)
	}
	if cfg.Grace == 0 {
		cfg.Grace = si.Minutes(30)
	}
	clock := &tracedClock{inner: engine.NewVirtualClock(), t: t, fired: &acc.fired}
	col := &replayCollector{}
	sys, err := engine.New(engine.Config{
		Clock:     clock,
		Allocator: &tracedAllocator{inner: sim.AllocatorFor(cfg.Scheme), t: t, denied: &acc.admitDenied},
		Method:    cfg.Method,
		NewScheduler: func(d *engine.Disk) engine.Scheduler {
			return &tracedScheduler{inner: engine.NewScheduler(d), t: t, nils: &acc.nextNil}
		},
		Spec:                  cfg.Spec,
		CR:                    cfg.CR,
		Alpha:                 cfg.Alpha,
		TLog:                  cfg.TLog,
		ChurnSafeAdmission:    cfg.ChurnSafeAdmission,
		DeadlineAwareBubbleUp: cfg.DeadlineAwareBubbleUp,
		RampAwarePlanning:     cfg.RampAwarePlanning,
		Library:               cfg.Library,
		Seed:                  cfg.Seed,
		SizeTable:             cfg.SizeTable,
		Observer:              &tracedObserver{inner: col, t: t, n: &acc.counts},
	})
	if err != nil {
		return simDigest{}, err
	}
	col.latency = metrics.NewByN(sys.Params().N)

	end := cfg.Trace.Schedule.Horizon() + cfg.Grace
	for _, req := range cfg.Trace.Requests {
		req := req
		clock.Schedule(req.Arrival, func() { sys.OnArrival(req) })
	}
	var usage si.Bits
	var sample func()
	sample = func() {
		now := clock.Now()
		for i := 0; i < sys.Disks(); i++ {
			usage += sys.Disk(i).Pool().Usage(now)
		}
		if next := now + cfg.SampleEvery; next <= end {
			clock.Schedule(next, sample)
		}
	}
	clock.Schedule(0, sample)
	clock.run(end)

	for i := 0; i < sys.Disks(); i++ {
		d := sys.Disk(i)
		d.ResolveEstimates(clock.Now())
		ps := d.Pool().Stats()
		col.d.Underruns += ps.Underruns
		col.d.PeakMemory += ps.HighWater
		ds := d.DiskStats()
		col.d.Fills += int64(ds.Reads)
		acc.utilization = max(acc.utilization, float64(ds.TotalSeek+ds.TotalRotate+ds.TotalXfer)/float64(end))
		for _, s := range d.Streams() {
			if s.Starved() {
				col.d.StarvedStreams++
			}
		}
	}
	col.d.LatencyMean, _ = col.latency.GrandMean()
	sink += float64(usage)
	acc.total.add(col.d)
	return col.d, nil
}
