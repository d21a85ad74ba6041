package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	vod "repro"
	"repro/internal/sim"
)

func TestPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	sorted := []float64{0, 10, 20, 30, 40}
	for p, want := range map[float64]float64{0: 0, 0.25: 10, 0.5: 20, 0.9: 36, 1: 40} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{0: 0, 99: 0, 100: 0.90, 999: 0.90, 1000: 0.99, 10_000: 0.999, 99_999: 0.999, 100_000: 0.9999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // nested, with a child of its own
		{ID: 3, Parent: 2, Start: 20, End: 30},  // grandchild: not the root's to subtract
		{ID: 4, Parent: 1, Start: 30, End: 60},  // overlaps span 2 over [30,40)
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped at 100
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 10, 4: 30, 5: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// The tracer's incremental stack arithmetic and selfTimes over its raw
// spans must agree when children do not overlap.
func TestTracerAgreesWithSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.begin(layerRun, 0)
	for i := 0; i < 3; i++ {
		tr.begin(layerCallback, i)
		tr.begin(layerSchedNext, i)
		tr.begin(layerAllocPlan, i)
		tr.end()
		tr.end()
		tr.begin(layerObserver, i)
		tr.end()
		tr.end()
	}
	tr.end()
	self := selfTimes(tr.spans)
	byLayer := make(map[string]int64)
	for _, s := range tr.spans {
		byLayer[s.Name] += self[s.ID]
	}
	var total int64
	for l, a := range tr.agg {
		if a.Self != byLayer[layerNames[l]] {
			t.Errorf("%s: stack self %d, raw-span self %d", layerNames[l], a.Self, byLayer[layerNames[l]])
		}
		total += a.Self
	}
	if run := tr.agg[layerRun]; total != run.Total || run.Children != 3 || tr.agg[layerCallback].Children != 6 {
		t.Errorf("self times sum to %d of a %d ns root; children run=%d callback=%d", total, run.Total, run.Children, tr.agg[layerCallback].Children)
	}
}

// tinyDay is a one-hour, twenty-arrival day: the paper-day workload in
// miniature.
func tinyDay(t *testing.T, seed int64) []sim.Config {
	t.Helper()
	spec, cr, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271})
	if err != nil {
		t.Fatal(err)
	}
	tr := vod.GenerateWorkload(vod.ZipfDaySchedule(20, 1, vod.Minutes(30), vod.Hours(1)), lib, seed)
	var cfgs []sim.Config
	for _, k := range paperDayMethods {
		cfgs = append(cfgs, sim.Config{Scheme: vod.Dynamic, Method: vod.NewMethod(k), Spec: spec, CR: cr, Library: lib, Trace: tr, Seed: seed})
	}
	return cfgs
}

func TestInterposersTransparent(t *testing.T) {
	for _, cfg := range tinyDay(t, 7) {
		res, err := vod.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var acc replayed
		got, err := replay(cfg, newTracer(), &acc)
		if err != nil {
			t.Fatal(err)
		}
		if want := digestOf(res); got != want || want.Fills == 0 {
			t.Errorf("%v: traced replay %v, sim.Run %v", cfg.Method.Kind, got, want)
		}
		if acc.counts.Fills != got.Fills || acc.counts.Starts != int64(got.Served) || acc.total != got {
			t.Errorf("%v: observer counted %d fills and %d starts, digest has %d and %d",
				cfg.Method.Kind, acc.counts.Fills, acc.counts.Starts, got.Fills, got.Served)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	traceDigest := func(seed int64) string {
		var buf bytes.Buffer
		if err := tinyDay(t, seed)[0].Trace.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	titles := func(seed int64) []int {
		var seq []int
		for i := 0; i < liveClients; i++ {
			rng := clientRNG(seed, i)
			for j := 0; j < 32; j++ {
				seq = append(seq, rng.Intn(liveTitles))
			}
		}
		return seq
	}
	if traceDigest(3) != traceDigest(3) || !reflect.DeepEqual(titles(3), titles(3)) {
		t.Error("the same seed produced different inputs")
	}
	if traceDigest(3) == traceDigest(4) || reflect.DeepEqual(titles(3), titles(4)) {
		t.Error("different seeds produced the same inputs")
	}
	a, b := titles(3), titles(3)[32:]
	if reflect.DeepEqual(a[:32], b) {
		t.Error("both connections drew the same title sequence")
	}
}

func TestReportRoundTrips(t *testing.T) {
	in := report{
		Environment: environment{NProc: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", Commit: "unknown", Seed: 1},
		Untraced: []*result{{
			Workload: "paper-day", Correct: true, Attempted: 1101, Passes: 2, Seconds: 20.5,
			EndToEnd: map[string]stats{"throughput": {Median: 1.5e6, Min: 1.4e6, Max: 1.6e6, N: 2}},
			Notes:    []string{"digest"},
		}},
		Traced:       []*result{{Workload: "paper-day", Correct: true, PerLayer: map[string]float64{"sim.replay_equal": 1}}},
		TotalSeconds: 61.25,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("report changed across a JSON round trip:\n in %+v\nout %+v", in, out)
	}
}

// BENCHMARK.json is generated from this package's tables (-contract);
// the test holds the committed file to them and to the driver's limits.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	want, err := contract()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -contract > BENCHMARK.json`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads() {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if len(perLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("%d per-layer metrics in a %d-byte file", len(perLayer), len(got))
	}
}

// A short closed-loop run exercises the whole live path of the harness:
// server set-up, both clients, byte verification and every end-to-end
// metric.
func TestLiveLoopbackShortRun(t *testing.T) {
	res, err := (&liveWorkload{}).untraced(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range endToEnd {
		if s := res.EndToEnd[d.Name]; !(s.Median > 0) {
			t.Errorf("%s = %v, want a positive measurement", d.Name, s.Median)
		}
	}
}
