// Admission under a flash crowd: what predict-and-enforce buys.
//
// A quiet VOD server is hit by a burst of arrivals. The dynamic scheme
// predicted only a small number of additional requests, so its in-service
// buffers were sized for a bounded near future; admission control defers
// the excess arrivals rather than letting them starve the admitted
// viewers. The naive scheme (Eq. 5 at n+k, no enforcement) admits eagerly
// and underruns — the exact failure Fig. 3 of the paper illustrates.
//
//	go run ./examples/admission-burst
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

// run simulates the flash crowd under each scheme and prints the table to w.
func run(w io.Writer) error {
	spec, cr, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{
		Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271,
	})
	if err != nil {
		return err
	}

	// A hand-built burst schedule: 30 minutes of calm (a few arrivals),
	// then a flash crowd for 30 minutes, then calm again. Rates are in
	// arrivals per second over 30-minute slots.
	calm := 4.0 / 1800   // ~4 arrivals per half hour
	crowd := 45.0 / 1800 // ~45 arrivals per half hour — below capacity
	schedule := burstSchedule([]float64{calm, calm, crowd, crowd, calm})
	trace := vod.GenerateWorkload(schedule, lib, 7)
	fmt.Fprintf(w, "workload: %d arrivals over %v, flash crowd in minutes 60-90\n\n",
		len(trace.Requests), schedule.Horizon())

	fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %10s %12s\n",
		"scheme", "served", "maxConc", "deferred", "rejected", "underruns", "starved")
	for _, scheme := range []vod.Scheme{vod.Dynamic, vod.Naive, vod.Static} {
		res, err := vod.Simulate(vod.SimConfig{
			Scheme: scheme, Method: vod.NewMethod(vod.RoundRobin),
			Spec: spec, CR: cr, Library: lib, Trace: trace, Seed: 7,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8v %8d %8d %8d %8d %10d %12v\n",
			scheme, res.Served, res.MaxConcurrent, res.Deferrals, res.Rejected, res.Underruns, res.Starved)
	}
	fmt.Fprintln(w, "\nthe dynamic scheme's buffers were sized for a bounded near future")
	fmt.Fprintln(w, "and its admission control enforces that bound, so the admitted")
	fmt.Fprintln(w, "viewers never starve; the naive scheme sizes for the present only")
	fmt.Fprintln(w, "and starves the buffers it already promised to keep full.")
	return nil
}

// burstSchedule builds a piecewise-constant schedule from per-slot rates
// (30-minute slots).
func burstSchedule(rates []float64) vod.ArrivalSchedule {
	return vod.NewArrivalSchedule(vod.Minutes(30), rates)
}
