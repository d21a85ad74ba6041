// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each runner returns a Report containing the
// series or rows the paper plots, produced either from the closed-form
// analysis (Figs. 9, 10, 12, 13) or from the discrete-event simulation
// (Figs. 6–8, 11, 14 and Tables 4–5), under the Section 5.1 environment:
// a Seagate Barracuda 9LP disk, 1.5 Mbps MPEG-1 streams, Poisson arrivals
// whose rate follows a Zipf time-of-day profile peaking at nine hours,
// and uniform 0–120 minute viewing times.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
)

// Options tunes how much work the runners do.
type Options struct {
	// Seeds is the number of simulation seeds averaged (the paper uses
	// five). Default 3.
	Seeds int

	// Quick shrinks sweeps (fewer grid points, shorter horizons) for
	// tests and benchmarks. Shapes survive; precision drops.
	Quick bool

	// BaseSeed offsets all random seeds, for sensitivity checks.
	BaseSeed int64

	// Workers bounds how many simulation runs execute concurrently; zero
	// or negative means GOMAXPROCS. Per-run seeds derive from the run's
	// grid position (see MixSeed), and aggregation is positional, so
	// reports are byte-identical for every worker count — only the wall
	// clock changes.
	Workers int

	// Progress, when non-nil, receives one line per completed step. With
	// Workers > 1 it is invoked from multiple goroutines, but calls are
	// serialized by the harness, so an ordinary writer is safe; the line
	// order reflects completion order and is not deterministic.
	Progress func(string)
}

func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	return o
}

func (o Options) seed(i int) int64 { return o.BaseSeed + int64(i)*7919 }

// progressMu serializes Progress callbacks across the worker pool.
var progressMu sync.Mutex

func (o Options) progress(format string, args ...any) {
	if o.Progress == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	progressMu.Lock()
	defer progressMu.Unlock()
	o.Progress(line)
}

// Env is the fixed evaluation environment of Section 5.1.
type Env struct {
	Spec   diskmodel.Spec
	CR     si.BitRate
	Params core.Params
}

// PaperEnv returns the paper's environment: Barracuda 9LP, MPEG-1 at
// 1.5 Mbps, N = 79, alpha = 1.
func PaperEnv() Env {
	spec := diskmodel.Barracuda9LP()
	cr := si.Mbps(1.5)
	return Env{
		Spec: spec,
		CR:   cr,
		Params: core.Params{
			TR:    spec.TransferRate,
			CR:    cr,
			N:     core.DeriveN(spec.TransferRate, cr),
			Alpha: 1,
		},
	}
}

// RepresentativeK returns the k the paper plugs into the analysis figures
// (footnote 9): the worst-case average number of estimated additional
// requests measured in Fig. 7a — 4 for Round-Robin (T_log = 40 min) and
// 3 for Sweep* and GSS* (T_log = 20 min).
func RepresentativeK(kind sched.Kind) int {
	if kind == sched.RoundRobin {
		return 4
	}
	return 3
}

// PaperTLog returns the history window Section 5.1 settles on per method.
func PaperTLog(kind sched.Kind) si.Seconds {
	if kind == sched.RoundRobin {
		return si.Minutes(40)
	}
	return si.Minutes(20)
}

// Series is one plotted curve: y over x with labels. Simulation-backed
// series whose points average replications also carry per-point dispersion
// statistics; analysis series leave them nil.
type Series struct {
	Name string
	X    []float64
	Y    []float64

	// Std and CI95, when non-nil, run parallel to X: the sample standard
	// deviation across replications at each point, and the half-width of
	// the 95% confidence interval of the mean recorded in Y.
	Std  []float64
	CI95 []float64
}

// AddPoint appends a replication-averaged point with its dispersion
// statistics.
func (s *Series) AddPoint(x float64, st Stats) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, st.Mean)
	s.Std = append(s.Std, st.Std)
	s.CI95 = append(s.CI95, st.CI95)
}

// Table is a printable table of rows.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// Report is the output of one experiment runner.
type Report struct {
	ID     string // e.g. "fig9"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Tables []Table
	Notes  []string
}

// Fprint renders the report as readable text: tables verbatim, series as
// aligned columns sharing the x axis.
func (r *Report) Fprint(w *strings.Builder) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(w, "%-12s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(w, " %16s", s.Name)
			if s.HasStats() {
				fmt.Fprintf(w, " %12s %12s", "sd", "ci95")
			}
		}
		fmt.Fprintln(w)
		for _, x := range r.xGrid() {
			fmt.Fprintf(w, "%-12.4g", x)
			for _, s := range r.Series {
				i, ok := s.indexOf(x)
				if ok {
					fmt.Fprintf(w, " %16.6g", s.Y[i])
				} else {
					fmt.Fprintf(w, " %16s", "-")
				}
				if s.HasStats() {
					if ok {
						fmt.Fprintf(w, " %12.4g %12.4g", s.Std[i], s.CI95[i])
					} else {
						fmt.Fprintf(w, " %12s %12s", "-", "-")
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, t := range r.Tables {
		fmt.Fprintf(w, "-- %s --\n", t.Name)
		fmt.Fprintf(w, "%s\n", strings.Join(t.Columns, " | "))
		for _, row := range t.Rows {
			fmt.Fprintf(w, "%s\n", strings.Join(row, " | "))
		}
	}
	fmt.Fprintln(w)
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

// At returns the series value at x, if sampled there.
func (s Series) At(x float64) (float64, bool) {
	if i, ok := s.indexOf(x); ok {
		return s.Y[i], true
	}
	return 0, false
}

// indexOf returns the sample index at x, if sampled there.
func (s Series) indexOf(x float64) (int, bool) {
	for i, sx := range s.X {
		if sx == x {
			return i, true
		}
	}
	return 0, false
}

// HasStats reports whether the series carries per-point replication
// dispersion statistics.
func (s Series) HasStats() bool { return len(s.Std) > 0 && len(s.CI95) > 0 }

// xGrid returns the sorted union of the x grids of all series: series may
// sample different x values, so output renders over the union.
func (r *Report) xGrid() []float64 {
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	grid := make([]float64, 0, len(xs))
	for x := range xs {
		grid = append(grid, x)
	}
	sort.Float64s(grid)
	return grid
}

// Runner produces one experiment's report.
type Runner func(Options) (*Report, error)

// Registry maps experiment ids to runners, in the paper's order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table3", Table3},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"table4", Table4},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"table5", Table5},
		{"ablation-naive", AblationNaive},
		{"ablation-gss-group", AblationGSSGroup},
		{"ablation-dybase", AblationDybase},
		{"ablation-chunks", AblationChunks},
		{"ablation-pages", AblationPages},
		{"ext-vcr", ExtVCR},
		{"ablation-bubbleup", AblationBubbleUp},
		{"ext-modern-disk", ExtModernDisk},
		{"scale-largen", ScaleLargeN},
		{"zipf-sharing", ZipfSharing},
		{"fleet-routing", FleetRouting},
		{"qoe-downgrade", QoEDowngrade},
		{"qoe-adaptation", QoEAdaptation},
	}
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (*Report, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// WriteCSV renders the report's series (one row per x value, one column
// per series) and tables as CSV blocks, for plotting with external tools.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(r.Series) > 0 {
		head := []string{r.XLabel}
		for _, s := range r.Series {
			head = append(head, s.Name)
			if s.HasStats() {
				head = append(head, s.Name+" stddev", s.Name+" ci95")
			}
		}
		if err := cw.Write(head); err != nil {
			return err
		}
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for _, x := range r.xGrid() {
			row := []string{f(x)}
			for _, s := range r.Series {
				i, ok := s.indexOf(x)
				if ok {
					row = append(row, f(s.Y[i]))
				} else {
					row = append(row, "")
				}
				if s.HasStats() {
					if ok {
						row = append(row, f(s.Std[i]), f(s.CI95[i]))
					} else {
						row = append(row, "", "")
					}
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	for _, t := range r.Tables {
		if err := cw.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
