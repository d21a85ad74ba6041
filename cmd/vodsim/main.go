// Command vodsim runs one discrete-event simulation of a VOD server and
// prints its measurements: admission counts, initial-latency statistics,
// starvation, estimation quality, and memory usage. With -reps > 1 it
// replays the scenario across independent replications (in parallel, up
// to -workers simulations at once) and reports each metric's mean, sample
// standard deviation, and 95% confidence interval.
//
// Examples:
//
//	vodsim -scheme dynamic -method rr -arrivals 2500 -theta 0
//	vodsim -scheme static -method sweep -hours 8
//	vodsim -scheme dynamic -disks 10 -memory 4 -arrivals 24000
//	vodsim -scheme dynamic -reps 10 -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	vod "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates, and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vodsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeFlag = fs.String("scheme", "dynamic", "allocation scheme: static, dynamic, naive")
		methodFlag = fs.String("method", "rr", "scheduling method: rr, sweep, gss")
		arrivals   = fs.Float64("arrivals", 2500, "expected arrivals over the horizon")
		theta      = fs.Float64("theta", 0.5, "arrival-pattern Zipf parameter (0 skewed .. 1 uniform)")
		hours      = fs.Float64("hours", 24, "simulated horizon in hours")
		disks      = fs.Int("disks", 1, "number of disks")
		memoryGB   = fs.Float64("memory", 0, "total memory budget in GB (0 = unlimited)")
		tlog       = fs.Float64("tlog", 0, "estimation window T_log in minutes (0 = paper default)")
		alpha      = fs.Int("alpha", 1, "inertia slack alpha")
		seed       = fs.Int64("seed", 1, "random seed (base seed when -reps > 1)")
		reps       = fs.Int("reps", 1, "independent replications to run and summarize")
		workers    = fs.Int("workers", runtime.NumCPU(), "max parallel simulation runs (<=0 uses GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scheme, err := vod.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	kind, err := vod.ParseMethod(*methodFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintln(stderr, "-reps must be at least 1")
		return 2
	}

	spec, cr, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{
		Titles:          6 * *disks,
		Disks:           *disks,
		Spec:            spec,
		PopularityTheta: 0.271,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	horizon := vod.Hours(*hours)
	peak := vod.Hours(9)
	if peak > horizon {
		peak = horizon / 2
	}
	schedule := vod.ZipfDaySchedule(*arrivals, *theta, peak, horizon)

	// Each replication gets its own trace and simulation seed derived
	// deterministically from (base seed, replication index), the same
	// scheme the experiment runner uses; rep 0 with -reps 1 reproduces
	// the traditional single-run behavior of -seed alone.
	build := func(rep int) (vod.SimConfig, error) {
		traceSeed, simSeed := *seed, *seed
		if *reps > 1 {
			traceSeed = vod.MixSeed(*seed, int64(rep), 0)
			simSeed = vod.MixSeed(*seed, int64(rep), 1)
		}
		cfg := vod.SimConfig{
			Scheme:       scheme,
			Method:       vod.NewMethod(kind),
			Spec:         spec,
			CR:           cr,
			Alpha:        *alpha,
			Library:      lib,
			Trace:        vod.GenerateWorkload(schedule, lib, traceSeed),
			Seed:         simSeed,
			MemoryBudget: vod.Gigabytes(*memoryGB),
		}
		if *tlog > 0 {
			cfg.TLog = vod.Minutes(*tlog)
		}
		return cfg, nil
	}

	results, err := vod.SimulateReplications(build, *reps, *workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "scheme=%v method=%v disks=%d horizon=%v reps=%d\n",
		scheme, vod.NewMethod(kind), *disks, horizon, *reps)
	if *reps == 1 {
		printSingle(stdout, results[0])
	} else {
		printSummary(stdout, results)
	}
	return 0
}

func printSingle(w io.Writer, res *vod.SimResult) {
	fmt.Fprintf(w, "served:               %d\n", res.Served)
	fmt.Fprintf(w, "rejected (capacity):  %d\n", res.Rejected)
	fmt.Fprintf(w, "rejected (memory):    %d\n", res.RejectedMemory)
	fmt.Fprintf(w, "admission deferrals:  %d\n", res.Deferrals)
	fmt.Fprintf(w, "max concurrent:       %d\n", res.MaxConcurrent)
	if gm, ok := res.LatencyByN.GrandMean(); ok {
		fmt.Fprintf(w, "avg initial latency:  %.4gs\n", gm)
	}
	fmt.Fprintf(w, "underruns:            %d (starved %v)\n", res.Underruns, res.Starved)
	fmt.Fprintf(w, "peak memory (actual): %v\n", res.PeakMemory)
	if res.Estimates > 0 {
		fmt.Fprintf(w, "estimation:           %.2f%% success, avg k %.2f over %d checks\n",
			100*res.SuccessRate(), res.EstimatedK.Mean(), res.Estimates)
	}
	fmt.Fprintf(w, "\n%-6s %14s %10s\n", "n", "avg latency", "requests")
	for n := 0; n < res.LatencyByN.Levels(); n++ {
		if mean, ok := res.LatencyByN.Mean(n); ok {
			fmt.Fprintf(w, "%-6d %13.4gs %10d\n", n, mean, res.LatencyByN.Count(n))
		}
	}
}

func printSummary(w io.Writer, results []*vod.SimResult) {
	metric := func(name string, get func(*vod.SimResult) float64) {
		samples := make([]float64, len(results))
		for i, r := range results {
			samples[i] = get(r)
		}
		st := vod.SummarizeReplications(samples)
		fmt.Fprintf(w, "%-22s %12.6g %12.6g %12.6g\n", name, st.Mean, st.Std, st.CI95)
	}
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "metric", "mean", "stddev", "ci95")
	metric("served", func(r *vod.SimResult) float64 { return float64(r.Served) })
	metric("rejected (capacity)", func(r *vod.SimResult) float64 { return float64(r.Rejected) })
	metric("rejected (memory)", func(r *vod.SimResult) float64 { return float64(r.RejectedMemory) })
	metric("admission deferrals", func(r *vod.SimResult) float64 { return float64(r.Deferrals) })
	metric("max concurrent", func(r *vod.SimResult) float64 { return float64(r.MaxConcurrent) })
	metric("avg initial latency s", func(r *vod.SimResult) float64 {
		gm, _ := r.LatencyByN.GrandMean()
		return gm
	})
	metric("underruns", func(r *vod.SimResult) float64 { return float64(r.Underruns) })
	metric("peak memory MB", func(r *vod.SimResult) float64 { return float64(r.PeakMemory) / (1 << 20) })
}
