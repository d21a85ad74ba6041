// Quickstart: size buffers with the static and dynamic schemes, compare
// their latency and memory implications, and run a small simulation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	vod "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the sizing comparison and the two-scheme simulation to w.
func run(w io.Writer) error {
	// The paper's environment: a Seagate Barracuda 9LP serving 1.5 Mbps
	// MPEG-1 streams. N = 79 concurrent streams fit on one disk.
	spec, cr, params := vod.PaperEnvironment()
	method := vod.NewMethod(vod.RoundRobin)

	fmt.Fprintf(w, "disk %q: TR=%v, max %d concurrent %v streams\n\n",
		spec.Name, spec.TransferRate, params.N, cr)

	// Static allocation sizes every buffer for the fully loaded server.
	dlFull := vod.WorstDiskLatency(method, spec, params.N)
	staticBS := vod.StaticBufferSize(params, dlFull, params.N)
	fmt.Fprintf(w, "static scheme allocates %v to every request, always\n\n", staticBS)

	// Dynamic allocation sizes for the current load n plus a prediction k
	// of near-future arrivals (Theorem 1).
	fmt.Fprintf(w, "%4s %6s  %12s  %18s\n", "n", "k", "dynamic BS", "worst init latency")
	for _, load := range []struct{ n, k int }{{1, 1}, {10, 4}, {40, 4}, {70, 4}, {79, 0}} {
		dl := vod.WorstDiskLatency(method, spec, load.n)
		bs := vod.DynamicBufferSize(params, dl, load.n, load.k)
		il := vod.WorstInitialLatency(method, spec, bs, load.n)
		fmt.Fprintf(w, "%4d %6d  %12v  %18v\n", load.n, load.k, bs, il)
	}

	// Simulate two hours of a lightly loaded server under both schemes.
	lib, err := vod.NewLibrary(vod.LibraryConfig{
		Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271,
	})
	if err != nil {
		return err
	}
	trace := vod.GenerateWorkload(vod.ZipfDaySchedule(60, 1, vod.Hours(1), vod.Hours(2)), lib, 42)

	fmt.Fprintf(w, "\nsimulating %d requests over 2 hours:\n", len(trace.Requests))
	for _, scheme := range []vod.Scheme{vod.Static, vod.Dynamic} {
		res, err := vod.Simulate(vod.SimConfig{
			Scheme: scheme, Method: method, Spec: spec, CR: cr,
			Library: lib, Trace: trace, Seed: 1,
		})
		if err != nil {
			return err
		}
		mean, _ := res.LatencyByN.GrandMean()
		fmt.Fprintf(w, "  %-8v avg latency %8.4gs   peak memory %9v   underruns %d\n",
			scheme, mean, res.PeakMemory, res.Underruns)
	}
	return nil
}
