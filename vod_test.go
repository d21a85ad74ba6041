package vod_test

import (
	"math"
	"testing"

	vod "repro"
)

func TestPaperEnvironment(t *testing.T) {
	spec, cr, p := vod.PaperEnvironment()
	if p.N != 79 {
		t.Errorf("N = %d, want 79", p.N)
	}
	if cr != vod.Mbps(1.5) {
		t.Errorf("CR = %v", cr)
	}
	if got := vod.DeriveN(spec.TransferRate, cr); got != 79 {
		t.Errorf("DeriveN = %d", got)
	}
}

func TestFacadeSizing(t *testing.T) {
	spec, _, p := vod.PaperEnvironment()
	m := vod.NewMethod(vod.RoundRobin)
	dl := vod.WorstDiskLatency(m, spec, p.N)
	static := vod.StaticBufferSize(p, dl, p.N)
	dyn := vod.DynamicBufferSize(p, dl, 10, 4)
	if dyn >= static {
		t.Errorf("dynamic %v should be below static %v at n=10", dyn, static)
	}
	tab := vod.NewSizeTable(p, m, spec)
	if got := tab.Size(10, 4); got != dyn {
		t.Errorf("table %v != direct %v", got, dyn)
	}
	il := vod.WorstInitialLatency(m, spec, dyn, 10)
	if il <= 0 || il > 1 {
		t.Errorf("worst IL = %v, want small positive", il)
	}
	if vod.MinMemoryDynamic(p, m, spec, 10, 4) >= vod.MinMemoryStatic(p, m, spec, 10) {
		t.Error("dynamic memory should be below static at n=10")
	}
}

func TestFacadeSimulation(t *testing.T) {
	spec, cr, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271})
	if err != nil {
		t.Fatal(err)
	}
	tr := vod.GenerateWorkload(vod.ZipfDaySchedule(40, 1, vod.Hours(1), vod.Hours(2)), lib, 1)
	res, err := vod.Simulate(vod.SimConfig{
		Scheme:  vod.Dynamic,
		Method:  vod.NewMethod(vod.Sweep),
		Spec:    spec,
		CR:      cr,
		Library: lib,
		Trace:   tr,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 || res.Underruns != 0 {
		t.Errorf("served %d, underruns %d", res.Served, res.Underruns)
	}
	if gm, ok := res.LatencyByN.GrandMean(); !ok || gm <= 0 || math.IsNaN(gm) {
		t.Errorf("latency grand mean = %v, %v", gm, ok)
	}
}

func TestFacadeParsers(t *testing.T) {
	if k, err := vod.ParseMethod("gss"); err != nil || k != vod.GSS {
		t.Errorf("ParseMethod = %v, %v", k, err)
	}
	if s, err := vod.ParseScheme("dynamic"); err != nil || s != vod.Dynamic {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := vod.Experiments()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	rep, err := vod.RunExperiment("table3", vod.ExperimentOptions{Quick: true, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" || len(rep.Tables) == 0 {
		t.Errorf("unexpected report %+v", rep)
	}
	if _, err := vod.RunExperiment("nope", vod.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFacadeRateSet(t *testing.T) {
	s, err := vod.NewRateSet([]vod.BitRate{vod.Mbps(1.5), vod.Mbps(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Unit(); got != vod.Mbps(0.5) {
		t.Errorf("Unit = %v", got)
	}
	p, err := s.UnitRateParams(vod.Mbps(120), 1)
	if err != nil || p.N != 239 {
		t.Fatalf("UnitRateParams N = %d, %v", p.N, err)
	}
}

func TestFacadeChunks(t *testing.T) {
	layout, err := vod.NewChunkLayout(vod.Megabytes(100), vod.Megabytes(20), vod.Megabytes(10))
	if err != nil {
		t.Fatal(err)
	}
	if layout.Chunks() < 9 {
		t.Errorf("chunks = %d", layout.Chunks())
	}
}
