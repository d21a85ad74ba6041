package experiments

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/sim"
)

// This file is the parallel execution layer of the experiment harness.
//
// The paper's evaluation is a grid of independent discrete-event
// simulations — schemes × scheduling methods × sweep points × seeds — and
// nothing in one run depends on another, so the harness fans the grid out
// across a bounded worker pool. Two invariants make the parallelism
// invisible in the output:
//
//  1. Deterministic seeding. Every run derives its random streams from
//     (base seed, workload point index, replication index) via MixSeed, a
//     splitmix64 finalizer chain, never from execution order or worker
//     identity. Comparison arms (static vs dynamic, the three methods) at
//     the same workload point deliberately share the same workload seeds:
//     the paper's ratios are paired comparisons, and pairing removes the
//     workload variance from the ratio.
//
//  2. Positional aggregation. Workers write each result into its (point,
//     replication) slot of a preallocated grid; aggregation walks the grid
//     in index order after all runs complete. Reports are therefore
//     byte-identical for any worker count, including Workers = 1.

// Seed stream identifiers: the third MixSeed coordinate, separating the
// independent random streams one run consumes.
const (
	seedTrace = iota // workload (arrival/title/viewing-time) generation
	seedSim          // simulation internals (rotational-delay sampling)
)

// MixSeed derives a deterministic 63-bit seed from a base seed and run
// coordinates, using the splitmix64 finalizer as a mixing function. Equal
// inputs give equal outputs on every platform, and any coordinate change
// decorrelates the whole stream — the property the parallel runner needs
// so that seed assignment is a pure function of a run's position in the
// experiment grid, not of when or where the run executes.
func MixSeed(base int64, coords ...int64) int64 {
	h := splitmix64(uint64(base) + 0x9e3779b97f4a7c15)
	for _, c := range coords {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(h >> 1)
}

// splitmix64 is the finalizer of Steele, Lea & Flood's SplitMix generator:
// an invertible bijection on 64-bit words with strong avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runSeed is the seed for stream `stream` of replication `rep` of workload
// point `point` under the options' base seed. Configuration arms that
// compare schemes or methods on the same workload pass the same point
// index, so the comparison is paired.
func (o Options) runSeed(point, rep, stream int) int64 {
	return MixSeed(o.BaseSeed, int64(point), int64(rep), int64(stream))
}

// workerCount resolves the Workers knob: non-positive means GOMAXPROCS,
// and the pool never exceeds the number of runs.
func (o Options) workerCount(runs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > runs {
		w = runs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachCell executes run(0..cells-1) across at most workers goroutines.
// All dispatched cells complete before it returns. The first error stops
// dispatch of the remaining cells and is returned.
func forEachCell(workers, cells int, run func(cell int) error) error {
	if cells <= 0 {
		return nil
	}
	if workers > cells {
		workers = cells
	}
	if workers <= 1 {
		for c := 0; c < cells; c++ {
			if err := run(c); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if failed() {
					continue // drain without running once something failed
				}
				if err := run(c); err != nil {
					fail(err)
				}
			}
		}()
	}
	for c := 0; c < cells; c++ {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// runGrid executes fn for every cell of a points×reps grid across the
// configured worker pool and returns the results indexed [point][rep].
// fn must be a pure function of its coordinates plus read-only captured
// state (a shared *catalog.Library is fine; it is immutable after
// construction). Results land positionally, so anything aggregated from
// the returned grid in index order is independent of the worker count and
// of goroutine scheduling. The first error cancels the undispatched
// remainder of the grid.
func runGrid[T any](opt Options, points, reps int, fn func(point, rep int) (T, error)) ([][]T, error) {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, reps)
	}
	err := forEachCell(opt.workerCount(points*reps), points*reps, func(cell int) error {
		p, r := cell/reps, cell%reps
		v, err := fn(p, r)
		if err != nil {
			return err
		}
		out[p][r] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tableKey identifies a dynamic sizing table by its derivation inputs:
// the disk model, the scheduling method (whose worst-case latency model
// the recurrence integrates), the consumption rate, and the inertia
// slack. Spec is a plain value type, so the key is comparable.
type tableKey struct {
	spec  diskmodel.Spec
	kind  sched.Kind
	cr    si.BitRate
	alpha int
}

var (
	tableCacheMu sync.Mutex
	tableCache   = map[tableKey]*core.Table{}
)

// sharedSizeTable returns the memoized dynamic sizing table for the
// given derivation inputs, building it on first use. Tables are immutable
// after construction, so one instance is safely shared by every cell of
// every grid in the process — the replicated (point, seed) runs of one
// experiment, and equally the repeated experiments of a full regeneration
// — instead of each sim.Run rebuilding the same O(N²·√N) table. Sharing
// is a pure memoization: the engine validates the table against the
// config it is handed and would reject a mismatched one, and results are
// bit-identical with and without the cache.
func sharedSizeTable(spec diskmodel.Spec, kind sched.Kind, cr si.BitRate, alpha int) *core.Table {
	key := tableKey{spec: spec, kind: kind, cr: cr, alpha: alpha}
	tableCacheMu.Lock()
	defer tableCacheMu.Unlock()
	if t, ok := tableCache[key]; ok {
		return t
	}
	p := core.Params{TR: spec.TransferRate, CR: cr, N: core.DeriveN(spec.TransferRate, cr), Alpha: alpha}
	t := core.NewTable(p, sched.NewMethod(kind).DLModel(spec))
	tableCache[key] = t
	return t
}

// libKey identifies a default-parameterized library by its derivation
// inputs. Spec is a plain value type, so the key is comparable.
type libKey struct {
	titles, disks int
	spec          diskmodel.Spec
	theta         float64
}

var (
	libCacheMu sync.Mutex
	libCache   = map[libKey]*catalog.Library{}
)

// sharedLibrary returns the memoized library for cfg, building it on
// first use. Libraries are immutable after construction, so one instance
// is safely shared by every cell of every grid in the process — Fig. 14
// alone rebuilds the identical catalog for every (memory, scheme, seed)
// cell of a skew otherwise. Configs carrying a Video override hook or a
// chunked layout are built fresh each time: function fields are not
// comparable, so their identity cannot live in the cache key.
// Sharing is a pure memoization — catalog.New is deterministic in its
// config — so reports are bit-identical with and without the cache.
func sharedLibrary(cfg catalog.Config) (*catalog.Library, error) {
	if cfg.Video != nil || cfg.ChunkSize != 0 || cfg.MaxRead != 0 {
		return catalog.New(cfg)
	}
	key := libKey{titles: cfg.Titles, disks: cfg.Disks, spec: cfg.Spec, theta: cfg.PopularityTheta}
	libCacheMu.Lock()
	defer libCacheMu.Unlock()
	if l, ok := libCache[key]; ok {
		return l, nil
	}
	l, err := catalog.New(cfg)
	if err != nil {
		return nil, err
	}
	libCache[key] = l
	return l, nil
}

// runSim executes one simulation with the cached sizing table for the
// config's parameters installed. Every simulation-backed runner goes
// through it; configs that already carry a table keep it.
func runSim(cfg sim.Config) (*sim.Result, error) {
	if cfg.SizeTable == nil {
		cfg.SizeTable = sharedSizeTable(cfg.Spec, cfg.Method.Kind, cfg.CR, cfg.Alpha)
	}
	return sim.Run(cfg)
}

// SimulateReplications runs reps independent simulations across at most
// workers goroutines (workers <= 0 means GOMAXPROCS), building each run's
// configuration with build — typically a fresh trace and seeds per
// replication. Results are returned in replication order regardless of
// scheduling, so downstream aggregation is deterministic.
func SimulateReplications(build func(rep int) (sim.Config, error), reps, workers int) ([]*sim.Result, error) {
	out := make([]*sim.Result, reps)
	err := forEachCell(Options{Workers: workers}.workerCount(reps), reps, func(rep int) error {
		cfg, err := build(rep)
		if err != nil {
			return err
		}
		res, err := runSim(cfg)
		if err != nil {
			return err
		}
		out[rep] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats summarizes the replications of one measurement: the sample count,
// mean, sample standard deviation, and the half-width of the two-sided
// 95% confidence interval of the mean under the Student t distribution
// (the dispersion statistics the evaluation's averaged points carry).
type Stats struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64
}

// Summarize computes replication statistics over samples. With fewer than
// two samples the dispersion terms are zero: one observation carries no
// spread information.
func Summarize(samples []float64) Stats {
	st := Stats{N: len(samples)}
	if st.N == 0 {
		return st
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	st.Mean = sum / float64(st.N)
	if st.N < 2 {
		return st
	}
	var ss float64
	for _, v := range samples {
		d := v - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(st.N-1))
	st.CI95 = tCrit95(st.N-1) * st.Std / math.Sqrt(float64(st.N))
	return st
}

// tCrit95 returns the two-sided 95% critical value of the Student t
// distribution with df degrees of freedom, tabulated for the small
// replication counts experiments actually use and converging to the
// normal 1.96 beyond the table.
func tCrit95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return 0
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.960
}
