// Command bench is the repository's allocation gate. It runs the tracked
// cases that allocate — a cold virtual clock, eight simulated days and
// four loopback serving workloads — a fixed number of times each, and
// prints one allocs/op count per case as JSON:
//
//	go run ./cmd/bench                           # print the snapshot
//	go run ./cmd/bench -check BENCH_ALLOCS.json  # gate it against the baseline
//
// Only allocation counts are recorded. With fixed iteration counts they
// repeat from run to run within a few allocations; a day's count moves
// by a handful because a map's growth points follow the runtime's
// per-map hash seed, which is what the gate's tolerance absorbs. Time
// drifts with the machine's load and is measured by the repo benchmark
// (benchmark/, see BENCHMARK.json) instead. The hot paths that must not
// allocate at all are pinned at exactly zero by AllocsPerRun tests in
// their own packages.
//
// -check fails when a case's allocs/op exceeds its baseline b by more
// than b·110/100 + 1, when a case is missing from the run or from the
// baseline, or when the jitter-compensation case's floor fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// result is one case's entry in the snapshot and in BENCH_ALLOCS.json.
type result struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// benchCase is one tracked allocation count.
type benchCase struct {
	// name identifies the case in BENCH_ALLOCS.json.
	name string
	// iters is the fixed number of operations the case runs.
	iters int
	// measure sets the case up, runs its operation iters times and
	// returns the heap allocations the operations made, set-up excluded.
	measure func(iters int) (uint64, error)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, measures every case,
// prints the snapshot and, under -check, gates it. It returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.String("check", "", "gate the run against the baseline `file` (BENCH_ALLOCS.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var base []result
	if *check != "" {
		buf, err := os.ReadFile(*check)
		if err == nil {
			err = json.Unmarshal(buf, &base)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: reading baseline: %v\n", err)
			return 1
		}
	}

	var cur []result
	for _, c := range cases() {
		runtime.GC() // start each case from a collected heap, as a Go benchmark does
		mallocs, err := c.measure(c.iters)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", c.name, err)
			return 1
		}
		r := result{Name: c.name, AllocsPerOp: int64(mallocs) / int64(c.iters)}
		fmt.Fprintf(stderr, "%-32s %8d allocs/op\n", r.Name, r.AllocsPerOp)
		cur = append(cur, r)
	}
	buf, err := json.MarshalIndent(cur, "", "  ")
	if err == nil {
		_, err = stdout.Write(append(buf, '\n'))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing snapshot: %v\n", err)
		return 1
	}

	if *check == "" {
		return 0
	}
	if problems := compare(base, cur); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "REGRESSION:", p)
		}
		return 1
	}
	fmt.Fprintln(stderr, "bench: no allocs/op regressions against", *check)
	return 0
}

// compare returns one problem per case of cur whose allocs/op exceed
// its baseline b by more than b·110/100 + 1, and one per case present
// on only one side: a case dropped from the run, or added without a
// baseline, must not pass unnoticed.
func compare(base, cur []result) []string {
	old := make(map[string]int64, len(base))
	for _, b := range base {
		old[b.Name] = b.AllocsPerOp
	}
	var problems []string
	seen := make(map[string]bool, len(cur))
	for _, c := range cur {
		seen[c.Name] = true
		b, ok := old[c.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no baseline", c.Name))
			continue
		}
		if limit := b*110/100 + 1; c.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (limit %d)", c.Name, c.AllocsPerOp, b, limit))
		}
	}
	for _, b := range base {
		if !seen[b.Name] {
			problems = append(problems, fmt.Sprintf("%s: in the baseline but not run", b.Name))
		}
	}
	return problems
}

// mallocs returns the heap allocations op makes, and op's error.
func mallocs(op func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := op()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}
