// Command vodcalc is the analysis calculator: it evaluates the paper's
// closed-form results — buffer sizes (Eq. 5, Theorem 1), worst initial
// latencies (Eqs. 2–4), and minimum memory requirements (Theorems 2–4) —
// for a chosen scheduling method and load, or prints the full sizing
// table.
//
// Examples:
//
//	vodcalc -method rr -n 10 -k 4
//	vodcalc -method sweep -table
//	vodcalc -method gss -n 79 -k 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	vod "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, prints the requested
// analysis, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vodcalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		methodFlag = fs.String("method", "rr", "scheduling method: rr, sweep, gss")
		n          = fs.Int("n", 10, "number of requests in service")
		k          = fs.Int("k", 4, "estimated additional requests (dynamic scheme)")
		alpha      = fs.Int("alpha", 1, "inertia slack alpha (>= 1)")
		cr         = fs.Float64("cr", 1.5, "consumption rate in Mbps")
		table      = fs.Bool("table", false, "print the dynamic sizing table for all n (at the given k)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	kind, err := vod.ParseMethod(*methodFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	m := vod.NewMethod(kind)
	spec := vod.Barracuda9LP()
	rate := vod.Mbps(*cr)
	p := vod.Params{TR: spec.TransferRate, CR: rate, N: vod.DeriveN(spec.TransferRate, rate), Alpha: *alpha}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "disk: %s  TR=%v  Cyln=%d  N=%d\n", spec.Name, spec.TransferRate, spec.Cylinders, p.N)
	fmt.Fprintf(stdout, "method: %v  stream rate: %v  alpha: %d\n\n", m, rate, p.Alpha)

	if *table {
		fmt.Fprintf(stdout, "%4s  %14s  %14s  %14s\n", "n", "DL", "static BS(N)", fmt.Sprintf("dynamic BS_%d(n)", *k))
		staticBS := vod.StaticBufferSize(p, vod.WorstDiskLatency(m, spec, p.N), p.N)
		for i := 1; i <= p.N; i++ {
			dl := vod.WorstDiskLatency(m, spec, i)
			fmt.Fprintf(stdout, "%4d  %14v  %14v  %14v\n", i, dl, staticBS, vod.DynamicBufferSize(p, dl, i, *k))
		}
		return 0
	}

	if *n < 1 || *n > p.N {
		fmt.Fprintf(stderr, "n must be in [1, %d]\n", p.N)
		return 2
	}
	dl := vod.WorstDiskLatency(m, spec, *n)
	dlN := vod.WorstDiskLatency(m, spec, p.N)
	staticBS := vod.StaticBufferSize(p, dlN, p.N)
	dynBS := vod.DynamicBufferSize(p, dl, *n, *k)
	kk := *k
	if kk > p.N-*n {
		kk = p.N - *n
	}

	fmt.Fprintf(stdout, "per-service worst disk latency DL(n=%d): %v\n\n", *n, dl)
	fmt.Fprintf(stdout, "%-34s %14s %14s\n", "", "static", "dynamic")
	fmt.Fprintf(stdout, "%-34s %14v %14v\n", "buffer size", staticBS, dynBS)
	fmt.Fprintf(stdout, "%-34s %14v %14v\n", "usage period (BS/CR)",
		p.UsagePeriod(staticBS), p.UsagePeriod(dynBS))
	fmt.Fprintf(stdout, "%-34s %14v %14v\n", "worst initial latency",
		vod.WorstInitialLatency(m, spec, staticBS, *n),
		vod.WorstInitialLatency(m, spec, dynBS, *n))
	fmt.Fprintf(stdout, "%-34s %14v %14v\n", "min memory for this load",
		vod.MinMemoryStatic(p, m, spec, *n),
		vod.MinMemoryDynamic(p, m, spec, *n, kk))
	return 0
}
