// Command vodtrace generates, inspects, and converts workload traces: the
// Poisson-under-a-Zipf-day arrival process of Section 5.1 serialized as
// CSV for replay, hand editing, or analysis with external tools.
//
// Examples:
//
//	vodtrace -arrivals 2500 -theta 0 -out day.csv      # generate
//	vodtrace -stats day.csv                            # summarize
//	vodtrace -arrivals 500 -disks 10 -hours 8          # print to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	vod "repro"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, generates or
// summarizes a trace, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vodtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		arrivals = fs.Float64("arrivals", 2500, "expected arrivals over the horizon")
		theta    = fs.Float64("theta", 0.5, "arrival-pattern Zipf parameter (0 skewed .. 1 uniform)")
		hours    = fs.Float64("hours", 24, "horizon in hours")
		disks    = fs.Int("disks", 1, "number of disks in the library")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "", "write the generated trace to this file (default stdout)")
		statsArg = fs.String("stats", "", "summarize an existing trace CSV instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *statsArg != "" {
		f, err := os.Open(*statsArg)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err := workload.ReadCSV(f)
		if err != nil {
			return fail(err)
		}
		maxDisk := 0
		for _, r := range tr.Requests {
			if r.Disk > maxDisk {
				maxDisk = r.Disk
			}
		}
		st := tr.Summarize(maxDisk + 1)
		fmt.Fprintf(stdout, "requests:      %d\n", st.Requests)
		fmt.Fprintf(stdout, "horizon:       %v\n", st.Horizon)
		fmt.Fprintf(stdout, "peak rate:     %.4f arrivals/s (busiest 30-minute slot)\n", st.PeakRate)
		fmt.Fprintf(stdout, "mean viewing:  %v\n", st.MeanViewing)
		for d, share := range st.PerDiskShare {
			fmt.Fprintf(stdout, "disk %d share:  %.1f%%\n", d, 100*share)
		}
		return 0
	}

	spec, _, _ := vod.PaperEnvironment()
	lib, err := vod.NewLibrary(vod.LibraryConfig{
		Titles: 6 * *disks, Disks: *disks, Spec: spec, PopularityTheta: 0.271,
	})
	if err != nil {
		return fail(err)
	}
	horizon := vod.Hours(*hours)
	peak := vod.Hours(9)
	if peak > horizon {
		peak = horizon / 2
	}
	tr := vod.GenerateWorkload(vod.ZipfDaySchedule(*arrivals, *theta, peak, horizon), lib, *seed)

	if *out == "" {
		if err := tr.WriteCSV(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	err = tr.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "%d requests written to %s\n", len(tr.Requests), *out)
	return 0
}
