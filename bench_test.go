// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, running the experiment harness
// in its quick configuration), plus microbenchmarks of the hot paths.
//
// The experiment benchmarks are dominated by whole simulated days, so a
// single iteration is the regeneration; run with -benchtime 1x for exact
// one-shot timing.
package vod_test

import (
	"testing"

	vod "repro"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// A fixed seed keeps iterations identical (and lets the fig14/table5
	// pair share its memoized sweep): the benchmark measures the cost of
	// one regeneration, not seed-to-seed variance.
	for i := 0; i < b.N; i++ {
		rep, err := vod.RunExperiment(id, vod.ExperimentOptions{Quick: true, Seeds: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Series) == 0 && len(rep.Tables) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable3Constants(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFig6Workload(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7TlogSweep(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8AlphaSweep(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9BufferSize(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10WorstLatency(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11SimLatency(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkTable4LatencyRatios(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFig12MemoryModel(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13CapacityAnalysis(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14CapacitySim(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkTable5CapacityRatios(b *testing.B)  { benchExperiment(b, "table5") }

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationNaiveDynamic(b *testing.B) { benchExperiment(b, "ablation-naive") }
func BenchmarkAblationGSSGroupSize(b *testing.B) { benchExperiment(b, "ablation-gss-group") }

// Microbenchmarks of the runtime-critical paths.

// BenchmarkDynamicSizeRecurrence measures one Theorem 1 evaluation by
// backward recurrence — the cost a server would pay without the table.
func BenchmarkDynamicSizeRecurrence(b *testing.B) {
	spec, _, p := vod.PaperEnvironment()
	dl := vod.WorstDiskLatency(vod.NewMethod(vod.RoundRobin), spec, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = vod.DynamicBufferSize(p, dl, 1+i%p.N, i%4)
	}
}

// BenchmarkSizeTableLookup measures the precomputed-table path used at
// every allocation (Section 3.3's O(N^2) precomputation).
func BenchmarkSizeTableLookup(b *testing.B) {
	spec, _, p := vod.PaperEnvironment()
	tab := vod.NewSizeTable(p, vod.NewMethod(vod.RoundRobin), spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Size(1+i%p.N, i%8)
	}
}

// BenchmarkSizeTableBuild measures system-initialization cost: the whole
// N x N table.
func BenchmarkSizeTableBuild(b *testing.B) {
	spec, _, p := vod.PaperEnvironment()
	m := vod.NewMethod(vod.Sweep)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = vod.NewSizeTable(p, m, spec)
	}
}

// BenchmarkMinMemoryDynamic measures one Theorem 2-4 evaluation, the
// admission governor's building block.
func BenchmarkMinMemoryDynamic(b *testing.B) {
	spec, _, p := vod.PaperEnvironment()
	m := vod.NewMethod(vod.GSS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 1 + i%p.N
		k := i % (p.N - n + 1)
		_ = vod.MinMemoryDynamic(p, m, spec, n, k)
	}
}

// BenchmarkDaySimulation runs the full allocator x method matrix, one
// simulated day per iteration — the end-to-end measure of the engine hot
// path under every scheduling method the paper evaluates. The custom
// sim-days/sec metric is the throughput the experiment harness sees.
func BenchmarkDaySimulation(b *testing.B) {
	spec, cr, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271})
	if err != nil {
		b.Fatal(err)
	}
	tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, 1)
	for _, scheme := range []vod.Scheme{vod.Static, vod.Dynamic} {
		for _, kind := range []vod.MethodKind{vod.RoundRobin, vod.Sweep, vod.GSS} {
			b.Run(scheme.String()+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := vod.Simulate(vod.SimConfig{
						Scheme: scheme, Method: vod.NewMethod(kind),
						Spec: spec, CR: cr, Library: lib, Trace: tr, Seed: int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Served == 0 {
						b.Fatal("nothing served")
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-days/sec")
			})
		}
	}
}

// BenchmarkWorkloadGeneration measures drawing one day's Poisson trace.
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, _, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271})
	if err != nil {
		b.Fatal(err)
	}
	sched := vod.ZipfDaySchedule(2500, 0, vod.Hours(9), vod.Hours(24))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vod.GenerateWorkload(sched, lib, int64(i))
	}
}

// Extension and substrate ablation benchmarks.

func BenchmarkAblationDybase(b *testing.B) { benchExperiment(b, "ablation-dybase") }
func BenchmarkAblationChunks(b *testing.B) { benchExperiment(b, "ablation-chunks") }
func BenchmarkAblationPages(b *testing.B)  { benchExperiment(b, "ablation-pages") }
func BenchmarkExtVCRResponse(b *testing.B) { benchExperiment(b, "ext-vcr") }

func BenchmarkAblationBubbleUp(b *testing.B) { benchExperiment(b, "ablation-bubbleup") }

func BenchmarkExtModernDisk(b *testing.B) { benchExperiment(b, "ext-modern-disk") }
