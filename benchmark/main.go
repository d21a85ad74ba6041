// Command benchmark is the repo's performance instrument: four named
// workloads, end-to-end metrics measured with tracing off, and a
// separate traced run per workload for the per-layer numbers.
// BENCHMARK.json at the repo root describes it; README.md in this
// directory says what each workload and metric is for.
//
//	bash benchmark/run.sh                          all workloads, untraced then traced
//	bash benchmark/run.sh -workload paper-day      one workload
//	bash benchmark/run.sh -selfcheck               end-to-end set twice, compared against the bounds
//	bash benchmark/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                               one run, one JSON result line (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
// The simulated workloads run whole passes of fixed work until that
// much time is spent; they are sized so one (scale-peak, figure-grid)
// or two (paper-day) passes fill it on the reference machine.
const runSeconds = 20

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	untraced, traced func(seed int64, seconds float64) (*result, error)
}

func workloads() []workloadDef {
	pd, sp, fg, ll := newPaperDay(), newScalePeak(), &figureGridWorkload{}, &liveWorkload{}
	return []workloadDef{
		{"paper-day", "The paper's Section 5 day under all three methods: at most 25 streams, a microsecond per fill, so the event clock, buffer pool and allocator dominate; deep-queue tuning would cost here.", pd.untraced, pd.traced},
		{"scale-peak", "The same engine at depth 700 on 8 modern disks: the per-dispatch deadline work in the scheduler dominates and the clock is under 2 %; proxy for the test suite's slowest package.", sp.untraced, sp.traced},
		{"figure-grid", "What regenerating the figures costs: the only multi-core workload, reaching the engine through the governor, sharing, fleet and ladder layers, with reports checked against the goldens.", fg.untraced, fg.traced},
		{"live-loopback", "The engine under the wall clock plus wire, sessions and live metrics, which no simulation touches: 2 closed-loop TCP clients, CPU-bound at 4800x compression; sim-only changes must not move it.", ll.untraced, ll.traced},
	}
}

// contract renders BENCHMARK.json from the tables in this package.
func contract() ([]byte, error) {
	b, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloads(), endToEnd, perLayer}, "", "  ")
	return append(b, '\n'), err
}

// environment is recorded in every report.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) environment {
	env := environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// report is the -out file.
type report struct {
	Environment  environment `json:"environment"`
	Untraced     []*result   `json:"untraced"`
	Traced       []*result   `json:"traced"`
	TotalSeconds float64     `json:"total_seconds"`
}

// completePerLayer adds the probes to a traced run's metrics and fills
// in 0 for the metrics the workload cannot observe.
func completePerLayer(res *result, seed int64) error {
	probes, err := runProbes(seed)
	if err != nil {
		return err
	}
	for name, v := range probes {
		res.PerLayer[name] = v
	}
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.Name] = true
		if _, ok := res.PerLayer[d.Name]; !ok {
			res.PerLayer[d.Name] = 0
		}
	}
	for name := range res.PerLayer {
		if !known[name] {
			return fmt.Errorf("%s reported %q, which perLayer does not list", res.Workload, name)
		}
	}
	return nil
}

func runTraced(w workloadDef, seed int64, seconds float64) (*result, error) {
	res, err := w.traced(seed, seconds)
	if err != nil {
		return nil, err
	}
	return res, completePerLayer(res, seed)
}

// contractLine prints the one-line JSON result the driver reads.
func contractLine(res *result, traced bool) error {
	line := lineResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]lineMetric)}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = lineMetric{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = lineMetric{res.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	for name, v := range line.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.Workload, name, v.Value)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func printEndToEnd(res *result) {
	fmt.Printf("\n%s  untraced: %d pass(es), %.1f s measured, attempted %d, failed %d (failed_share %.4g), correct %v\n",
		res.Workload, res.Passes, res.Seconds, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, d := range endToEnd {
		s := res.EndToEnd[d.Name]
		fmt.Printf("  %-16s %14.6g %-4s  %s is better, bound %.2f  (min %.6g .. max %.6g, n=%d)\n",
			d.Name, s.Median, d.Unit, d.Better, d.Bound, s.Min, s.Max, s.N)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func printPerLayer(res *result) {
	fmt.Printf("\n%s  traced: %.1f s, attempted %d, failed %d, correct %v\n", res.Workload, res.Seconds, res.Attempted, res.Failed, res.Correct)
	for _, d := range perLayer {
		fmt.Printf("  %-42s %16.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// lineResult is the one-line JSON result the driver reads.
type lineResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun re-executes this program for one untraced run in a process of
// its own, the way the driver runs it: nothing one run leaves behind in
// memory (fig14's memo, a grown heap, warm pools) reaches the next. It
// returns the result line and the run's notes, which carry the digests.
func childRun(workload string, seed int64, seconds float64) (lineResult, string, error) {
	var res lineResult
	self, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var notes strings.Builder
	cmd.Stderr = &notes
	out, err := cmd.Output()
	if err != nil {
		return res, "", fmt.Errorf("%s: %w: %s", workload, err, notes.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return res, notes.String(), json.Unmarshal([]byte(lines[len(lines)-1]), &res)
}

// selfcheck runs the end-to-end set twice back to back and compares
// each workload × metric against the metric's bound.
func selfcheck(ws []workloadDef, seed int64, seconds float64) (bool, error) {
	ok := true
	fmt.Printf("%-14s %-16s %14s %14s %9s %6s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range ws {
		var runs [2]lineResult
		var notes [2]string
		for i := range runs {
			var err error
			if runs[i], notes[i], err = childRun(w.Name, seed, seconds); err != nil {
				return false, err
			}
			ok = ok && runs[i].Correct
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.Bound {
				ok, verdict = false, "  EXCEEDS BOUND"
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %8.2f%% %5.0f%%%s\n", w.Name, d.Name, a, b, diff*100, d.Bound*100, verdict)
		}
		if runs[0].Failed != runs[1].Failed || notes[0] != notes[1] {
			ok = false
			fmt.Printf("%-14s exact outputs differ between the two runs\n", w.Name)
		}
	}
	return ok, nil
}

func run() (int, error) {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", defaultSeed, "seed every workload's inputs derive from")
		seconds   = flag.Float64("seconds", runSeconds, "time budget one run measures for")
		trace     = flag.Int("trace", -1, "0: one untraced run, 1: one traced run, each printing a single JSON result line; default: both, as a report")
		out       = flag.String("out", "", "write the JSON report here, and the raw spans to trace.json beside it")
		check     = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds")
		printJSON = flag.Bool("contract", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printJSON {
		b, err := contract()
		if err != nil {
			return 1, err
		}
		_, err = os.Stdout.Write(b)
		return 0, err
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: fewer than 2 CPUs; the workloads are sized for 2 and figure-grid and live-loopback will read differently")
	}
	ws := workloads()
	if *name != "" {
		var pick []workloadDef
		for _, w := range ws {
			if w.Name == *name {
				pick = append(pick, w)
			}
		}
		if pick == nil {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		ws = pick
	}

	if *trace == 0 || *trace == 1 {
		if len(ws) != 1 {
			return 2, fmt.Errorf("-trace %d needs -workload", *trace)
		}
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(ws[0], *seed, *seconds)
		} else {
			res, err = ws[0].untraced(*seed, *seconds)
		}
		if err != nil {
			return 1, err
		}
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "%s: %s\n", res.Workload, n)
		}
		if err := contractLine(res, *trace == 1); err != nil {
			return 1, err
		}
		if !res.Correct {
			return 1, fmt.Errorf("%s: outputs incorrect or operations failed (%d of %d)", res.Workload, res.Failed, res.Attempted)
		}
		return 0, nil
	}

	if *check {
		ok, err := selfcheck(ws, *seed, *seconds)
		if err != nil {
			return 1, err
		}
		if !ok {
			return 1, fmt.Errorf("selfcheck: two runs of the same code disagree beyond the bounds")
		}
		fmt.Println("selfcheck: every workload x metric within its bound")
		return 0, nil
	}

	start := time.Now()
	rep := report{Environment: readEnvironment(*seed)}
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n",
		rep.Environment.NProc, rep.Environment.GoMaxProcs, rep.Environment.GoVersion, rep.Environment.Commit, *seed)
	correct := true
	for _, w := range ws {
		res, err := w.untraced(*seed, *seconds)
		if err != nil {
			return 1, err
		}
		printEndToEnd(res)
		rep.Untraced = append(rep.Untraced, res)
		correct = correct && res.Correct
	}
	var traces []traceFile
	for _, w := range ws {
		res, err := runTraced(w, *seed, *seconds)
		if err != nil {
			return 1, err
		}
		printPerLayer(res)
		rep.Traced = append(rep.Traced, res)
		traces = append(traces, *res.trace)
		correct = correct && res.Correct
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	fmt.Printf("\ntotal elapsed %.1f s\n", rep.TotalSeconds)
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
		if err := writeTraceFile(filepath.Join(filepath.Dir(*out), "trace.json"), traces); err != nil {
			return 1, err
		}
	}
	if !correct {
		return 1, fmt.Errorf("a workload's outputs were incorrect or operations failed")
	}
	return 0, nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}
