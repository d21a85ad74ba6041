package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
	"repro/internal/workload"
)

// singleDiskArrivalsPerDay sizes the one-disk workloads: with uniform
// arrivals this keeps the disk at mid load, and with theta = 0 the peak
// saturates it, so the latency experiments observe the whole n range, as
// the paper's Fig. 6 shows.
const singleDiskArrivalsPerDay = 2500

// singleDisk builds the paper's one-disk environment: six MPEG-1 titles
// with Zipf(0.271) popularity on one Barracuda.
func singleDisk() (*catalog.Library, error) {
	return sharedLibrary(catalog.Config{
		Titles:          6,
		Disks:           1,
		Spec:            PaperEnv().Spec,
		PopularityTheta: 0.271,
	})
}

// dayTrace generates one day of arrivals whose rate follows the Zipf
// time-of-day profile with the given theta, peaking at nine hours.
func dayTrace(lib *catalog.Library, theta float64, total float64, seed int64, quick bool) workload.Trace {
	horizon := si.Hours(24)
	if quick {
		horizon = si.Hours(8)
		total *= 8.0 / 24
	}
	peak := si.Hours(9)
	if peak > horizon {
		peak = horizon * 3 / 8
	}
	return workload.Generate(workload.ZipfDay(total, theta, peak, horizon), lib, seed)
}

// simConfig assembles the standard simulation config.
func simConfig(scheme sim.Scheme, m sched.Method, lib *catalog.Library, tr workload.Trace, seed int64) sim.Config {
	env := PaperEnv()
	return sim.Config{
		Scheme:  scheme,
		Method:  m,
		Spec:    env.Spec,
		CR:      env.CR,
		Alpha:   env.Params.Alpha,
		TLog:    PaperTLog(m.Kind),
		Library: lib,
		Trace:   tr,
		Seed:    seed,
	}
}

// Fig6 reproduces Fig. 6: the number of concurrent requests over the day
// for the three arrival-pattern skews. The three skews are independent
// runs, fanned out across the worker pool.
func Fig6(opt Options) (*Report, error) {
	opt = opt.normalized()
	lib, err := singleDisk()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig6",
		Title:  "Concurrent requests over the day under Zipf arrival patterns",
		XLabel: "time (h)",
		YLabel: "requests in service",
	}
	thetas := []float64{0, 0.5, 1}
	cells, err := runGrid(opt, len(thetas), 1, func(p, _ int) (Series, error) {
		theta := thetas[p]
		tr := dayTrace(lib, theta, singleDiskArrivalsPerDay, opt.runSeed(p, 0, seedTrace), opt.Quick)
		cfg := simConfig(sim.Dynamic, sched.NewMethod(sched.RoundRobin), lib, tr, opt.runSeed(p, 0, seedSim))
		cfg.SampleEvery = si.Minutes(10)
		res, err := runSim(cfg)
		if err != nil {
			return Series{}, err
		}
		s := Series{Name: fmt.Sprintf("theta=%.1f", theta)}
		for _, pt := range res.Concurrency.Samples() {
			s.X = append(s.X, pt.At.Hours())
			s.Y = append(s.Y, pt.V)
		}
		opt.progress("fig6 theta=%.1f done (rejected %d)", theta, res.Rejected)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range cells {
		rep.Series = append(rep.Series, row[0])
	}
	return rep, nil
}

// estObs is one run's estimation-quality observation.
type estObs struct{ k, p float64 }

// estimationSweep runs the dynamic scheme over one knob (T_log or alpha)
// and reports the mean estimated k and the successful-estimation
// probability per method — the machinery behind Figs. 7 and 8. Every
// (method, knob value, replication) triple is an independent run; all
// triples share per-replication workload seeds (the knob under test is a
// configuration change, so sharing the arrivals pairs the comparison),
// and the whole grid fans out across the worker pool.
func estimationSweep(opt Options, id, title, xlabel string,
	points []float64, configure func(*sim.Config, float64, sched.Kind)) (*Report, error) {
	opt = opt.normalized()
	lib, err := singleDisk()
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title, XLabel: xlabel}
	arms := len(sched.Kinds) * len(points)
	cells, err := runGrid(opt, arms, opt.Seeds, func(arm, rep int) (estObs, error) {
		kind := sched.Kinds[arm/len(points)]
		x := points[arm%len(points)]
		m := sched.NewMethod(kind)
		tr := dayTrace(lib, 0.5, singleDiskArrivalsPerDay, opt.runSeed(0, rep, seedTrace), opt.Quick)
		cfg := simConfig(sim.Dynamic, m, lib, tr, opt.runSeed(0, rep, seedSim))
		configure(&cfg, x, kind)
		res, err := runSim(cfg)
		if err != nil {
			return estObs{}, err
		}
		opt.progress("%s %v x=%v seed %d done", id, m, x, rep)
		return estObs{k: res.EstimatedK.Mean(), p: res.SuccessRate()}, nil
	})
	if err != nil {
		return nil, err
	}
	for ki, kind := range sched.Kinds {
		m := sched.NewMethod(kind)
		kSeries := Series{Name: fmt.Sprintf("avg-k/%v", m)}
		pSeries := Series{Name: fmt.Sprintf("success/%v", m)}
		for xi, x := range points {
			reps := cells[ki*len(points)+xi]
			ks := make([]float64, len(reps))
			ps := make([]float64, len(reps))
			for i, o := range reps {
				ks[i], ps[i] = o.k, o.p
			}
			kSeries.AddPoint(x, Summarize(ks))
			pSeries.AddPoint(x, Summarize(ps))
		}
		rep.Series = append(rep.Series, kSeries, pSeries)
	}
	return rep, nil
}

// Fig7 reproduces Fig. 7: average estimated additional requests (a) and
// successful-estimation probability (b) versus T_log, with alpha = 1.
func Fig7(opt Options) (*Report, error) {
	points := []float64{10, 20, 30, 40, 50, 60}
	if opt.Quick {
		points = []float64{10, 40}
	}
	return estimationSweep(opt, "fig7",
		"Estimated additional requests and success probability vs T_log (alpha=1)",
		"T_log (min)", points,
		func(cfg *sim.Config, x float64, _ sched.Kind) {
			cfg.TLog = si.Minutes(x)
			cfg.Alpha = 1
		})
}

// Fig8 reproduces Fig. 8: the same two quantities versus alpha, with the
// paper's per-method T_log (40 min Round-Robin, 20 min Sweep*/GSS*).
func Fig8(opt Options) (*Report, error) {
	points := []float64{1, 2, 3, 4}
	if opt.Quick {
		points = []float64{1, 3}
	}
	return estimationSweep(opt, "fig8",
		"Estimated additional requests and success probability vs alpha",
		"alpha", points,
		func(cfg *sim.Config, x float64, kind sched.Kind) {
			cfg.Alpha = int(x)
			cfg.TLog = PaperTLog(kind)
		})
}

// latencyArm is one (scheme, method, skew) combination of the latency
// experiments. Arms with equal thetaIdx share per-replication workload
// seeds: static and dynamic — and the three methods — replay the same
// arrivals, so the paper's reduction ratios are paired comparisons.
type latencyArm struct {
	scheme   sim.Scheme
	kind     sched.Kind
	thetaIdx int
	theta    float64
}

// latencyByNArms simulates every arm × replication on the worker pool and
// returns, per arm, the latency-by-n data merged over replications in
// replication order.
func latencyByNArms(opt Options, id string, arms []latencyArm) ([]*metrics.ByN, error) {
	lib, err := singleDisk()
	if err != nil {
		return nil, err
	}
	cells, err := runGrid(opt, len(arms), opt.Seeds, func(a, rep int) (*metrics.ByN, error) {
		arm := arms[a]
		m := sched.NewMethod(arm.kind)
		tr := dayTrace(lib, arm.theta, singleDiskArrivalsPerDay, opt.runSeed(arm.thetaIdx, rep, seedTrace), opt.Quick)
		res, err := runSim(simConfig(arm.scheme, m, lib, tr, opt.runSeed(arm.thetaIdx, rep, seedSim)))
		if err != nil {
			return nil, err
		}
		opt.progress("%s %v/%v theta=%.1f seed %d done", id, arm.scheme, m, arm.theta, rep)
		return res.LatencyByN, nil
	})
	if err != nil {
		return nil, err
	}
	env := PaperEnv()
	out := make([]*metrics.ByN, len(arms))
	for a := range arms {
		merged := metrics.NewByN(env.Params.N)
		for _, byn := range cells[a] {
			merged.Merge(byn)
		}
		out[a] = merged
	}
	return out, nil
}

// fig11Theta is the arrival skew the Fig. 11 curves use; Table 4 sweeps
// all three skews.
const fig11Theta = 0.5

// Fig11 reproduces Fig. 11: simulated average initial latency versus the
// number of requests in service at arrival, static versus dynamic.
func Fig11(opt Options) (*Report, error) {
	opt = opt.normalized()
	rep := &Report{
		ID:     "fig11",
		Title:  fmt.Sprintf("Average initial latency vs requests in service (simulation, theta=%.1f)", fig11Theta),
		XLabel: "n at arrival",
		YLabel: "avg initial latency (s)",
	}
	var arms []latencyArm
	for _, kind := range sched.Kinds {
		for _, scheme := range []sim.Scheme{sim.Static, sim.Dynamic} {
			arms = append(arms, latencyArm{scheme: scheme, kind: kind, thetaIdx: 0, theta: fig11Theta})
		}
	}
	merged, err := latencyByNArms(opt, "fig11", arms)
	if err != nil {
		return nil, err
	}
	for a, arm := range arms {
		byN := merged[a]
		s := Series{Name: fmt.Sprintf("%v/%v", arm.scheme, sched.NewMethod(arm.kind))}
		for n := 0; n < byN.Levels(); n++ {
			if mean, ok := byN.Mean(n); ok {
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, mean)
			}
		}
		rep.Series = append(rep.Series, s)
	}
	return rep, nil
}

// Table4 reproduces Table 4: the average reduction ratio of initial
// latency for the dynamic scheme over the static one, averaged over the
// numbers of requests in service, per arrival skew and method.
func Table4(opt Options) (*Report, error) {
	opt = opt.normalized()
	thetas := []float64{0, 0.5, 1}
	var arms []latencyArm
	for ti, theta := range thetas {
		for _, kind := range sched.Kinds {
			for _, scheme := range []sim.Scheme{sim.Static, sim.Dynamic} {
				arms = append(arms, latencyArm{scheme: scheme, kind: kind, thetaIdx: ti, theta: theta})
			}
		}
	}
	merged, err := latencyByNArms(opt, "table4", arms)
	if err != nil {
		return nil, err
	}
	t := Table{
		Name:    "Average reduction ratio of initial latency (static/dynamic)",
		Columns: []string{"theta", "Round-Robin", "Sweep*", "GSS*"},
	}
	i := 0
	for _, theta := range thetas {
		row := []string{fmt.Sprintf("%.1f", theta)}
		for range sched.Kinds {
			stat, dyn := merged[i], merged[i+1]
			i += 2
			ratio, n := avgRatio(stat, dyn)
			row = append(row, fmt.Sprintf("%.1fx (over %d levels)", ratio, n))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Report{
		ID:     "table4",
		Title:  "Latency reduction ratios (paper: 11.0-11.6 RR, 19.5-19.7 Sweep*, 28.0-29.4 GSS*)",
		Tables: []Table{t},
		Notes:  []string{"ratio averaged over load levels n observed by both schemes"},
	}, nil
}

// avgRatio averages static/dynamic per-level mean-latency ratios over the
// levels where both schemes observed arrivals, the paper's Table 4
// aggregation.
func avgRatio(stat, dyn *metrics.ByN, minCount ...int64) (float64, int) {
	min := int64(3)
	if len(minCount) > 0 {
		min = minCount[0]
	}
	sum, n := 0.0, 0
	for lvl := 0; lvl < stat.Levels() && lvl < dyn.Levels(); lvl++ {
		if stat.Count(lvl) < min || dyn.Count(lvl) < min {
			continue
		}
		sm, _ := stat.Mean(lvl)
		dm, _ := dyn.Mean(lvl)
		if dm <= 0 || sm <= 0 {
			continue
		}
		sum += sm / dm
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
