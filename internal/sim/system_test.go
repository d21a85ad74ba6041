package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// testLibrary builds a small, deterministic library.
func testLibrary(t *testing.T, disks int) *catalog.Library {
	t.Helper()
	lib, err := catalog.New(catalog.Config{
		Titles:          6 * disks,
		Disks:           disks,
		Spec:            diskmodel.Barracuda9LP(),
		PopularityTheta: 0.271,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// lightTrace is a short, moderate-load workload: four hours, uniform
// arrivals, steady-state around 12 concurrent requests.
func lightTrace(t *testing.T, lib *catalog.Library, perDay float64, theta float64, seed int64) workload.Trace {
	t.Helper()
	return workload.Generate(workload.ZipfDay(perDay, theta, si.Hours(2), si.Hours(4)), lib, seed)
}

func testConfig(t *testing.T, scheme Scheme, kind sched.Kind, lib *catalog.Library, tr workload.Trace) Config {
	t.Helper()
	return Config{
		Scheme:  scheme,
		Method:  sched.NewMethod(kind),
		Spec:    diskmodel.Barracuda9LP(),
		CR:      si.Mbps(1.5),
		Library: lib,
		Trace:   tr,
		Seed:    7,
	}
}

func TestConfigValidation(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 40, 1, 1)
	base := testConfig(t, Dynamic, sched.RoundRobin, lib, tr)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil library", func(c *Config) { c.Library = nil }},
		{"bad spec", func(c *Config) { c.Spec.TransferRate = 0 }},
		{"bad method", func(c *Config) { c.Method = sched.Method{Kind: sched.GSS} }},
		{"bad CR", func(c *Config) { c.CR = c.Spec.TransferRate }},
		{"bad scheme", func(c *Config) { c.Scheme = Scheme(9) }},
		{"negative alpha", func(c *Config) { c.Alpha = -1 }},
		{"negative tlog", func(c *Config) { c.TLog = -1 }},
		{"negative sample", func(c *Config) { c.SampleEvery = -1 }},
		{"negative grace", func(c *Config) { c.Grace = -1 }},
		{"trace disk out of range", func(c *Config) {
			c.Trace.Requests = append([]workload.Request(nil), c.Trace.Requests...)
			c.Trace.Requests[0].Disk = 5
		}},
	}
	for _, cse := range cases {
		cfg := base
		cse.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run should fail", cse.name)
		}
	}
}

// The core correctness claim: with the enforced schemes (static and
// dynamic), no admitted stream ever starves at moderate load, for every
// scheduling method.
func TestNoUnderrunsModerateLoad(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 80, 1, 3)
	for _, scheme := range []Scheme{Static, Dynamic} {
		for _, kind := range sched.Kinds {
			res, err := Run(testConfig(t, scheme, kind, lib, tr))
			if err != nil {
				t.Fatal(err)
			}
			if res.Underruns != 0 {
				t.Errorf("%v/%v: %d underruns (%v starved)", scheme, kind, res.Underruns, res.Starved)
			}
			if res.Served == 0 {
				t.Errorf("%v/%v: nothing served", scheme, kind)
			}
		}
	}
}

// The headline result: the dynamic scheme's average initial latency is far
// below the static one's at partial load, for every method.
func TestDynamicLatencyFarBelowStatic(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 80, 1, 4)
	for _, kind := range sched.Kinds {
		stat, err := Run(testConfig(t, Static, kind, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := Run(testConfig(t, Dynamic, kind, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		sm, ok1 := stat.LatencyByN.GrandMean()
		dm, ok2 := dyn.LatencyByN.GrandMean()
		if !ok1 || !ok2 {
			t.Fatalf("%v: missing latency data", kind)
		}
		if dm >= sm/5 {
			t.Errorf("%v: dynamic latency %.3fs not well below static %.3fs", kind, dm, sm)
		}
	}
}

// Dynamic buffers shrink memory dramatically at partial load.
func TestDynamicMemoryFarBelowStatic(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 80, 1, 5)
	for _, kind := range sched.Kinds {
		stat, err := Run(testConfig(t, Static, kind, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := Run(testConfig(t, Dynamic, kind, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		if float64(dyn.PeakMemory) >= float64(stat.PeakMemory)/5 {
			t.Errorf("%v: dynamic peak %v not well below static %v", kind, dyn.PeakMemory, stat.PeakMemory)
		}
	}
}

// The naive scheme of Section 3.1 underruns under a rising arrival rate —
// the flaw (Fig. 3) that motivates the predict-and-enforce design. The
// enforced dynamic scheme survives the same workload cleanly.
func TestNaiveSchemeStarvesUnderRamp(t *testing.T) {
	lib := testLibrary(t, 1)
	// Strong ramp into saturation: skewed arrivals peaking mid-trace.
	tr := workload.Generate(workload.ZipfDay(900, 0, si.Hours(3), si.Hours(6)), lib, 6)
	naive, err := Run(testConfig(t, Naive, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	if naive.Underruns == 0 {
		t.Error("naive scheme should underrun under a rising load")
	}
	if float64(dyn.Starved) > float64(naive.Starved)/10 {
		t.Errorf("dynamic starved %v vs naive %v: enforcement should dominate", dyn.Starved, naive.Starved)
	}
}

func TestDeterminism(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 60, 0.5, 8)
	run := func() *Result {
		res, err := Run(testConfig(t, Dynamic, sched.GSS, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	am, _ := a.LatencyByN.GrandMean()
	bm, _ := b.LatencyByN.GrandMean()
	if am != bm || a.Served != b.Served || a.PeakMemory != b.PeakMemory ||
		a.Estimates != b.Estimates || a.EstimateHits != b.EstimateHits {
		t.Error("identical configs produced different results")
	}
}

// Capacity admission: the system never exceeds N concurrent requests per
// disk, and at overload it rejects rather than over-admitting.
func TestCapacityRejection(t *testing.T) {
	lib := testLibrary(t, 1)
	// Far beyond one disk's capacity.
	tr := workload.Generate(workload.ZipfDay(2200, 0, si.Hours(2), si.Hours(4)), lib, 9)
	for _, scheme := range []Scheme{Static, Dynamic} {
		res, err := Run(testConfig(t, scheme, sched.RoundRobin, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxConcurrent > 79 {
			t.Errorf("%v: max concurrent %d exceeds N", scheme, res.MaxConcurrent)
		}
		if res.Rejected == 0 {
			t.Errorf("%v: overload should reject requests", scheme)
		}
		if res.MaxConcurrent < 75 {
			t.Errorf("%v: overload should fill the disk, got max %d", scheme, res.MaxConcurrent)
		}
	}
}

// Estimation quality at the paper's operating point: with T_log = 40 min
// and alpha = 1, the successful-estimation probability exceeds 90 percent.
func TestEstimationSuccess(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 120, 0.5, 10)
	cfg := testConfig(t, Dynamic, sched.RoundRobin, lib, tr)
	cfg.TLog = si.Minutes(40)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates == 0 {
		t.Fatal("no estimation checks resolved")
	}
	if got := res.SuccessRate(); got < 0.9 {
		t.Errorf("success rate = %.3f, want > 0.9", got)
	}
	if res.EstimatedK.Mean() <= 0 {
		t.Errorf("mean estimated k = %v, want positive", res.EstimatedK.Mean())
	}
}

// Memory-constrained admission (Fig. 14's mechanism): a tight budget caps
// concurrency below the unconstrained run, a generous one does not, and
// the reservation never exceeds the budget.
func TestMemoryGovernor(t *testing.T) {
	lib := testLibrary(t, 2)
	tr := workload.Generate(workload.ZipfDay(400, 0.5, si.Hours(2), si.Hours(4)), lib, 11)

	unconstrained, err := Run(testConfig(t, Static, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}

	tight := testConfig(t, Static, sched.RoundRobin, lib, tr)
	tight.MemoryBudget = si.Gigabytes(0.3)
	tightRes, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if tightRes.MaxConcurrent >= unconstrained.MaxConcurrent {
		t.Errorf("tight budget: %d concurrent, unconstrained %d", tightRes.MaxConcurrent, unconstrained.MaxConcurrent)
	}
	if tightRes.RejectedMemory == 0 {
		t.Error("tight budget should reject on memory")
	}
	for _, s := range tightRes.Reserved.Samples() {
		if s.V > float64(si.Gigabytes(0.3))+1 {
			t.Fatalf("reservation %v exceeds budget at t=%v", si.Bits(s.V), s.At)
		}
	}

	// The dynamic scheme squeezes more concurrent requests out of the
	// same tight budget — Table 5's effect.
	tightDyn := testConfig(t, Dynamic, sched.RoundRobin, lib, tr)
	tightDyn.MemoryBudget = si.Gigabytes(0.3)
	dynRes, err := Run(tightDyn)
	if err != nil {
		t.Fatal(err)
	}
	if dynRes.MaxConcurrent <= tightRes.MaxConcurrent {
		t.Errorf("dynamic under tight budget: %d concurrent, static %d", dynRes.MaxConcurrent, tightRes.MaxConcurrent)
	}
}

// Multi-disk runs respect per-disk capacity and route requests by
// placement.
func TestMultiDisk(t *testing.T) {
	lib := testLibrary(t, 3)
	tr := workload.Generate(workload.ZipfDay(300, 0.5, si.Hours(2), si.Hours(4)), lib, 12)
	res, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DiskStats) != 3 {
		t.Fatalf("disk stats for %d disks, want 3", len(res.DiskStats))
	}
	for d, st := range res.DiskStats {
		if st.Reads == 0 {
			t.Errorf("disk %d performed no reads", d)
		}
	}
	if res.Underruns != 0 {
		t.Errorf("underruns = %d", res.Underruns)
	}
}

// The Until cutoff stops admitting new arrivals but lets the grace period
// drain, and the sampler covers the requested span.
func TestUntilCutoff(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 80, 1, 13)
	cfg := testConfig(t, Dynamic, sched.RoundRobin, lib, tr)
	cfg.Until = si.Hours(1)
	cfg.Grace = si.Minutes(10)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served >= full.Served {
		t.Errorf("cutoff served %d, full %d", res.Served, full.Served)
	}
	samples := res.Concurrency.Samples()
	lastAt := samples[len(samples)-1].At
	if lastAt > si.Hours(1)+si.Minutes(10) {
		t.Errorf("sampling ran past the cutoff: %v", lastAt)
	}
}

// Latency by load level: dynamic latency grows with n (larger buffers),
// and the n used for bucketing stays within range.
func TestLatencyByNShape(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := workload.Generate(workload.ZipfDay(600, 0, si.Hours(2), si.Hours(4)), lib, 14)
	res, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	lo, hiOK := 0.0, false
	if m, ok := res.LatencyByN.Mean(3); ok {
		lo = m
	}
	for n := 40; n < 79; n++ {
		if m, ok := res.LatencyByN.Mean(n); ok && m > lo {
			hiOK = true
			break
		}
	}
	if lo <= 0 || !hiOK {
		t.Errorf("latency-by-n shape unexpected: lo=%v hiOK=%v", lo, hiOK)
	}
}

func TestSchemeParseRoundTrip(t *testing.T) {
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme should fail")
	}
	if got := Scheme(9).String(); got != "sim.Scheme(9)" {
		t.Errorf("unknown scheme String = %q", got)
	}
}

// Global invariant sweep: run one dynamic GSS simulation and check
// internal consistency via the server invariants.
func TestServerInvariants(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 100, 0, 15)
	cfg := testConfig(t, Dynamic, sched.GSS, lib, tr)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxConcurrent > 79 {
		t.Errorf("capacity breached: %d", res.MaxConcurrent)
	}
	if math.IsNaN(res.EstimatedK.Mean()) {
		t.Error("NaN in estimated k")
	}
}

// A chunked library (footnote 3's layout) behaves like a contiguous one:
// no underruns, one latency per service, similar latency scale.
func TestChunkedLayoutEndToEnd(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	chunked, err := catalog.New(catalog.Config{
		Titles: 4, Disks: 1, Spec: spec, PopularityTheta: 0.271,
		ChunkSize: si.Megabytes(128), MaxRead: si.Megabytes(26),
	})
	if err != nil {
		t.Fatal(err)
	}
	contiguous, err := catalog.New(catalog.Config{
		Titles: 4, Disks: 1, Spec: spec, PopularityTheta: 0.271,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(lib *catalog.Library) *Result {
		tr := workload.Generate(workload.ZipfDay(80, 1, si.Hours(2), si.Hours(4)), lib, 3)
		res, err := Run(testConfig(t, Dynamic, sched.Sweep, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(chunked), run(contiguous)
	if a.Underruns != 0 {
		t.Errorf("chunked run underran %d times", a.Underruns)
	}
	am, _ := a.LatencyByN.GrandMean()
	bm, _ := b.LatencyByN.GrandMean()
	if am > 3*bm+0.1 {
		t.Errorf("chunked latency %v far above contiguous %v", am, bm)
	}
}

// A chunked library whose MaxRead is below the largest buffer must be
// rejected at configuration time, not discovered as a runtime panic.
func TestChunkedLayoutTooSmallMaxRead(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	lib, err := catalog.New(catalog.Config{
		Titles: 2, Disks: 1, Spec: spec, PopularityTheta: 0.271,
		ChunkSize: si.Megabytes(24), MaxRead: si.Megabytes(12), // < BS(N) = 25.75 MB
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(workload.ZipfDay(10, 1, si.Hours(1), si.Hours(2)), lib, 1)
	if _, err := Run(testConfig(t, Static, sched.RoundRobin, lib, tr)); err == nil {
		t.Error("undersized MaxRead should be rejected")
	}
}

// Disk utilization: the dynamic scheme pays more disk time (smaller, more
// frequent fills with per-fill latency) than the static one at equal load,
// and utilization stays within [0, 1].
func TestDiskUtilization(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 80, 1, 21)
	stat, err := Run(testConfig(t, Static, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	su, du := stat.DiskUtilization(0), dyn.DiskUtilization(0)
	for _, u := range []float64{su, du} {
		if u <= 0 || u >= 1 {
			t.Fatalf("utilization out of range: %v", u)
		}
	}
	if du <= su {
		t.Errorf("dynamic utilization %v should exceed static %v (latency amortized over smaller fills)", du, su)
	}
	if stat.DiskUtilization(5) != 0 || stat.DiskUtilization(-1) != 0 {
		t.Error("out-of-range disk should report zero")
	}
}

// VCR workloads run end-to-end: continuations are admitted and measured
// separately, with no starvation.
func TestVCRWorkloadSimulation(t *testing.T) {
	lib := testLibrary(t, 1)
	s := workload.ZipfDay(60, 1, si.Hours(1), si.Hours(2))
	tr := workload.GenerateVCR(s, lib, 22, workload.VCROptions{ActionsPerHour: 6})
	res, err := Run(testConfig(t, Dynamic, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.VCRLatency.N() == 0 {
		t.Fatal("no VCR responses measured")
	}
	if res.ColdLatency.N() == 0 {
		t.Fatal("no cold startups measured")
	}
	if res.Underruns != 0 {
		t.Errorf("underruns = %d", res.Underruns)
	}
	if int64(res.Served) != res.VCRLatency.N()+res.ColdLatency.N() {
		t.Errorf("latency counters (%d + %d) do not add up to served (%d)",
			res.VCRLatency.N(), res.ColdLatency.N(), res.Served)
	}
}

// Fixed-Stretch (BubbleUp disabled) still serves everyone without
// starvation — newcomers just wait for the rotation.
func TestDisableBubbleUp(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 60, 1, 23)
	cfg := testConfig(t, Static, sched.RoundRobin, lib, tr)
	cfg.DisableBubbleUp = true
	fixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bubble, err := Run(testConfig(t, Static, sched.RoundRobin, lib, tr))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Underruns != 0 {
		t.Errorf("fixed-stretch underruns = %d", fixed.Underruns)
	}
	if fixed.Served != bubble.Served {
		t.Errorf("served differ: %d vs %d", fixed.Served, bubble.Served)
	}
	fm, _ := fixed.LatencyByN.GrandMean()
	bm, _ := bubble.LatencyByN.GrandMean()
	if fm <= bm {
		t.Errorf("fixed-stretch latency %v should exceed BubbleUp's %v", fm, bm)
	}
}

// Grounding Theorems 2-4 against the simulator: hold the load at a fixed
// n (a burst of long-viewing arrivals), and the observed peak memory must
// sit in the same ballpark as the analytical minimum — above a fraction
// of it (the formulas are worst-case peaks, the simulation drains between
// fills) and below it plus scheduling cushions.
func TestMemoryFormulaGroundsSimulation(t *testing.T) {
	lib := testLibrary(t, 1)
	const n = 20
	var reqs []workload.Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, workload.Request{
			ID:      i,
			Arrival: si.Seconds(i), // a quick burst, then steady state
			Video:   i % lib.Len(),
			Disk:    0,
			Viewing: si.Hours(3),
		})
	}
	tr := workload.Trace{Requests: reqs, Schedule: workload.NewSchedule(si.Hours(4), []float64{0})}

	for _, kind := range sched.Kinds {
		m := sched.NewMethod(kind)
		res, err := Run(testConfig(t, Dynamic, kind, lib, tr))
		if err != nil {
			t.Fatal(err)
		}
		if res.Underruns != 0 {
			t.Fatalf("%v: underruns %d", m, res.Underruns)
		}
		// The steady state runs at n with a small k (no further arrivals,
		// so k settles at alpha-ish); compare against k in {1, ..., 4}.
		env := core.Params{TR: si.Mbps(120), CR: si.Mbps(1.5), N: 79, Alpha: 1}
		lo := float64(memmodel.MinDynamic(env, m, diskmodel.Barracuda9LP(), n, 1))
		hi := float64(memmodel.MinDynamic(env, m, diskmodel.Barracuda9LP(), n, 4))
		peak := float64(res.PeakMemory)
		if peak < 0.25*lo {
			t.Errorf("%v: sim peak %v far below the analytical floor %v", m, res.PeakMemory, si.Bits(lo))
		}
		if peak > 3*hi {
			t.Errorf("%v: sim peak %v far above the analytical ceiling %v", m, res.PeakMemory, si.Bits(hi))
		}
	}
}

// fillObserver counts service starts through the engine's Observer
// interface — the replacement for the old DebugServices hook.
type fillObserver struct {
	engine.NopObserver
	fills int
}

func (f *fillObserver) OnFill(disk int, st *engine.Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds) {
	f.fills++
}

// The engine's Observer fan-out reaches an Observer set on the Config.
func TestObserverFires(t *testing.T) {
	lib := testLibrary(t, 1)
	tr := lightTrace(t, lib, 30, 1, 31)
	fo := &fillObserver{}
	cfg := testConfig(t, Dynamic, sched.Sweep, lib, tr)
	cfg.Observer = fo
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if fo.fills == 0 {
		t.Error("Observer.OnFill never fired")
	}
}

// Randomized robustness: arbitrary light-to-moderate configurations must
// run without panics, respect capacity, and (for the enforced schemes)
// never starve an admitted viewer.
func TestRandomizedConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		scheme := []Scheme{Static, Dynamic}[rng.Intn(2)]
		kind := sched.Kinds[rng.Intn(3)]
		disks := 1 + rng.Intn(2)
		lib := testLibrary(t, disks)
		total := float64(40 + rng.Intn(120))
		theta := []float64{0, 0.5, 1}[rng.Intn(3)]
		tr := workload.Generate(workload.ZipfDay(total, theta, si.Hours(1), si.Hours(3)), lib, rng.Int63())
		cfg := testConfig(t, scheme, kind, lib, tr)
		cfg.Seed = rng.Int63()
		cfg.Alpha = 1 + rng.Intn(3)
		cfg.TLog = si.Minutes(float64(10 + rng.Intn(50)))
		if rng.Intn(2) == 0 {
			cfg.PageSize = si.Bits(8 * 4096)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d (%v/%v): %v", trial, scheme, kind, err)
		}
		if res.MaxConcurrent > disks*79 {
			t.Errorf("trial %d: capacity breached (%d)", trial, res.MaxConcurrent)
		}
		// Light loads must never starve; tolerate nothing here.
		if res.Underruns != 0 {
			t.Errorf("trial %d (%v/%v, theta=%v, total=%v): %d underruns, %v starved",
				trial, scheme, kind, theta, total, res.Underruns, res.Starved)
		}
		if res.Served == 0 {
			t.Errorf("trial %d: nothing served", trial)
		}
	}
}
