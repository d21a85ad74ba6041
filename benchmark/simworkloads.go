package main

import (
	"fmt"

	vod "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/scale"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// result is one run of one workload: untraced runs fill EndToEnd, traced
// runs fill PerLayer.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Passes    int                `json:"passes"`
	Seconds   float64            `json:"seconds"`
	EndToEnd  map[string]stats   `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	trace     *traceFile
}

// setPasses records an untraced run's passes and set-up as its
// end-to-end metrics.
func (r *result) setPasses(passes []pass, setup stats) {
	r.Passes = len(passes)
	r.EndToEnd = endToEndOf(passes)
	r.EndToEnd["setup_s"] = setup
	for _, p := range passes {
		r.Seconds += p.Wall
	}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// simWorkload is a workload made of virtual-clock simulations: paper-day
// and scale-peak differ only in their inputs and in how the untraced
// pass reaches the engine.
type simWorkload struct {
	name string
	// setup builds everything the timed region needs from the seed.
	setup func(seed int64) error
	// run executes one untraced pass and returns each simulation's
	// digest and the number of requests offered.
	run func() ([]simDigest, int, error)
	// configs are the same simulations as sim.Configs, for the replay.
	configs func() ([]sim.Config, error)
}

var paperDayMethods = []sched.Kind{sched.RoundRobin, sched.Sweep, sched.GSS}

// newPaperDay is the paper's Section 5 day on one Barracuda 9LP disk
// under the dynamic scheme, once per scheduling method — the same
// configuration as cmd/bench's sim/day/dynamic-* cases.
func newPaperDay() *simWorkload {
	var cfgs []sim.Config
	w := &simWorkload{name: "paper-day"}
	w.setup = func(seed int64) error {
		spec, cr, _ := vod.PaperEnvironment()
		lib, err := vod.NewLibrary(vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271})
		if err != nil {
			return err
		}
		tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, seed)
		cfgs = cfgs[:0]
		for _, k := range paperDayMethods {
			cfgs = append(cfgs, sim.Config{
				Scheme: vod.Dynamic, Method: vod.NewMethod(k), Spec: spec, CR: cr,
				Library: lib, Trace: tr, Seed: seed,
			})
		}
		return nil
	}
	w.run = func() ([]simDigest, int, error) {
		var ds []simDigest
		for _, cfg := range cfgs {
			res, err := vod.Simulate(cfg)
			if err != nil {
				return nil, 0, err
			}
			ds = append(ds, digestOf(res))
		}
		return ds, len(cfgs) * len(cfgs[0].Trace.Requests), nil
	}
	w.configs = func() ([]sim.Config, error) { return cfgs, nil }
	return w
}

// newScalePeak is internal/scale's quick scenario: 8 modern nearline
// disks (N=1599) ramped to ~700 streams each. The untraced pass goes
// through scale.Run; the replay needs the library and trace scale.Run
// builds internally, so scaleInputs rebuilds them the same way and
// sim.replay_equal holds the copy to the original.
func newScalePeak() *simWorkload {
	var (
		seed int64
		tab  *core.Table
	)
	w := &simWorkload{name: "scale-peak"}
	w.setup = func(s int64) error {
		seed, tab = s, scale.NewSizeTable(sched.RoundRobin)
		return nil
	}
	w.run = func() ([]simDigest, int, error) {
		r, err := scale.Run(scale.Config{Quick: true, Seed: seed, SizeTable: tab})
		if err != nil {
			return nil, 0, err
		}
		return []simDigest{digestOf(r.Sim)}, r.Requests, nil
	}
	w.configs = func() ([]sim.Config, error) {
		cfg, err := scaleInputs(seed)
		cfg.SizeTable = tab
		return []sim.Config{cfg}, err
	}
	return w
}

// scaleInputs mirrors scale.Run's derivation of its quick scenario:
// least-loaded placement of 16 two-hour titles per disk, and one peak
// half-hour slot sized so the ramp reaches 700 streams per disk.
func scaleInputs(seed int64) (sim.Config, error) {
	const (
		disks, titlesPerDisk, peakPerDisk = 8, 16, 700
		theta                             = 0.5
	)
	env := scale.Environment()
	length, horizon := si.Hours(2), si.Minutes(30)
	lib, err := catalog.New(catalog.Config{
		Titles: titlesPerDisk * disks, Disks: disks, Spec: env.Spec, PopularityTheta: 0.271,
		Video: func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Length = length
			return v
		},
		Policy: catalog.LeastLoaded{},
	})
	if err != nil {
		return sim.Config{}, err
	}
	const slot = si.Seconds(30 * 60)
	wMax := catalog.ZipfWeights(int(float64(horizon)/float64(slot)), theta)[0]
	maxViewing := min(workload.MaxViewing, length)
	total := float64(peakPerDisk*disks) * float64(slot) / (wMax * float64(maxViewing) / 2)
	if T, V := float64(horizon), float64(maxViewing); T < V {
		total *= (V / 2) / (T - T*T/(2*V))
	}
	day := workload.ZipfDay(total, theta, horizon*3/8, horizon)
	return sim.Config{
		Scheme: sim.Dynamic, Method: sched.NewMethod(sched.RoundRobin), Spec: env.Spec, CR: env.CR,
		Alpha: 1, ChurnSafeAdmission: true, DeadlineAwareBubbleUp: true,
		Library: lib, Trace: workload.Generate(day, lib, seed), Seed: seed ^ 0x5ca1ab1e,
		SampleEvery: si.Minutes(2), Grace: si.Minutes(5),
	}, nil
}

// untraced measures passes of the fixed work for the time budget. Every
// pass must reproduce the first pass's digests, and no viewer may fail.
func (w *simWorkload) untraced(seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Correct: true}
	setup, err := timeSetup(func() error { return w.setup(seed) })
	if err != nil {
		return nil, err
	}
	var first []simDigest
	passes, err := measurePasses(seconds, func(int) (float64, error) {
		ds, offered, err := w.run()
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = ds
		}
		var fills int64
		for i, d := range ds {
			fills += d.Fills
			res.Failed += d.failures()
			if d != first[i] {
				res.Correct = false
				res.notef("pass digest differs: %v vs %v", d, first[i])
			}
		}
		res.Attempted += offered
		return float64(fills), nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range first {
		res.notef("digest %v", d)
	}
	res.Correct = res.Correct && res.Failed == 0
	res.setPasses(passes, setup)
	return res, nil
}

// traced runs one untraced pass for reference, then replays the same
// simulations with the interposers in place.
func (w *simWorkload) traced(seed int64, _ float64) (*result, error) {
	res := &result{Workload: w.name}
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	m := startMeter()
	ref, offered, err := w.run()
	if err != nil {
		return nil, err
	}
	refCost := m.stop()
	cfgs, err := w.configs()
	if err != nil {
		return nil, err
	}

	t := newTracer()
	var sum replayed
	equal := true
	m = startMeter()
	for i, cfg := range cfgs {
		d, err := replay(cfg, t, &sum)
		if err != nil {
			return nil, err
		}
		if d != ref[i] {
			equal = false
			res.notef("replay differs: %v vs %v", d, ref[i])
		}
		res.Failed += d.failures()
	}
	tracedWall := m.stop().Wall
	res.Attempted, res.Passes, res.Seconds = offered, 1, tracedWall
	res.Correct = equal && res.Failed == 0

	pl := engineLayerMetrics(t, sum)
	d := sum.total
	pl["sim.served"] = float64(d.Served)
	pl["sim.rejected"] = float64(d.Rejected)
	pl["sim.deferrals"] = float64(d.Deferrals)
	pl["sim.max_concurrent"] = float64(d.MaxConcurrent)
	pl["sim.disk_utilization"] = sum.utilization
	pl["sim.startup_latency_mean_ms"] = d.LatencyMean / float64(len(cfgs)) * 1e3
	pl["sim.peak_buffer_mb"] = float64(d.PeakMemory) / 8e6
	if w.name == "scale-peak" {
		pl["scale.peak_total"] = float64(d.MaxConcurrent)
	}
	pl["sim.replay_equal"] = b2f(equal)
	var refFills int64
	for _, d := range ref {
		refFills += d.Fills
	}
	pl["process.alloc_b_per_op"] = refCost.Alloc / float64(refFills)
	pl["trace.overhead_ratio"] = tracedWall / refCost.Wall
	res.PerLayer = pl
	res.trace = &traceFile{Workload: w.name, Aggregates: t.aggregates(), Spans: t.spans}
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// engineLayerMetrics turns a replay's aggregates into the interposed
// per-layer metrics. Times are self times per simulated fill with the
// span-recording cost taken out, so the layers add up to roughly the
// untraced host cost of a fill; shares are of their sum.
func engineLayerMetrics(t *tracer, r replayed) map[string]float64 {
	fills := float64(r.total.Fills)
	inner, outer := spanOverhead()
	self := func(ls ...layer) float64 { return t.selfNS(inner, outer, ls...) }
	var all []layer
	for l := layer(0); l < numLayers; l++ {
		all = append(all, l)
	}
	total := self(all...)
	perFill := func(ls ...layer) float64 { return self(ls...) / fills }
	share := func(ls ...layer) float64 { return self(ls...) / total }
	count := func(l layer) float64 { return float64(t.agg[l].Count) }
	c := r.counts
	return map[string]float64{
		"engine.clock.schedules":           count(layerSchedule),
		"engine.clock.schedule_ns":         perFill(layerSchedule),
		"engine.clock.events_fired":        float64(r.fired),
		"engine.clock.events_per_fill":     float64(r.fired) / fills,
		"engine.clock.run_self_ns":         perFill(layerRun),
		"engine.clock.share":               share(layerRun, layerSchedule),
		"engine.scheduler.next_calls":      count(layerSchedNext),
		"engine.scheduler.next_ns":         perFill(layerSchedNext),
		"engine.scheduler.next_ns_max":     float64(t.agg[layerSchedNext].Max),
		"engine.scheduler.next_nil_ratio":  float64(r.nextNil) / count(layerSchedNext),
		"engine.scheduler.admit_remove_ns": perFill(layerSchedAdmit),
		"engine.scheduler.share":           share(layerSchedNext, layerSchedAdmit),
		"engine.allocator.size_calls":      count(layerAllocSize),
		"engine.allocator.size_ns":         perFill(layerAllocSize),
		"engine.allocator.plansize_calls":  count(layerAllocPlan),
		"engine.allocator.plansize_ns":     perFill(layerAllocPlan),
		"engine.allocator.admit_calls":     count(layerAllocAdmit),
		"engine.allocator.admit_denied":    float64(r.admitDenied),
		"engine.allocator.share":           share(layerAllocSize, layerAllocPlan, layerAllocAdmit),
		"engine.disk.callback_self_ns":     perFill(layerCallback),
		"engine.disk.share":                share(layerCallback),
		"engine.observer.callback_ns":      perFill(layerObserver),
		"engine.observer.share":            share(layerObserver),
		"engine.observer.admits":           float64(c.Admits),
		"engine.observer.defers":           float64(c.Defers),
		"engine.observer.rejects":          float64(c.Rejects),
		"engine.observer.fills":            float64(c.Fills),
		"engine.observer.fill_completes":   float64(c.FillCompletes),
		"engine.observer.starts":           float64(c.Starts),
		"engine.observer.stalls":           float64(c.Stalls),
		"engine.observer.estimates":        float64(c.Estimates),
		"engine.observer.estimate_hits":    float64(c.EstimateHits),
		"engine.observer.underruns":        float64(c.Underruns),
		"engine.observer.downgrades":       float64(c.Downgrades),
		"engine.observer.rate_switches":    float64(c.RateSwitches),
		"engine.observer.departs":          float64(c.Departs),
	}
}
