// Package bench defines the repository's performance-trajectory cases:
// the named micro and end-to-end benchmarks whose numbers cmd/bench
// snapshots into the committed BENCH_*.json files, one per tracked PR.
//
// Every case fixes its iteration count (a "benchtime Nx" run) so the
// allocs/op it reports is reproducible run to run — that is the metric
// CI's bench-smoke gate compares against the committed baseline, because
// unlike ns/op it does not drift with machine load.
package bench

import (
	"sync"
	"testing"
	"time"

	vod "repro"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sched"
)

// Case is one tracked benchmark.
type Case struct {
	// Name identifies the case in BENCH_*.json; stable across PRs so
	// baselines stay comparable.
	Name string
	// Iters is the fixed iteration count the harness runs (benchtime Nx).
	Iters int
	// SimDays marks end-to-end cases whose iterations are whole simulated
	// days; the harness derives sim-days/sec for them.
	SimDays bool
	// MinProcs is the GOMAXPROCS floor below which the harness skips the
	// case (0 = run everywhere). Scaling cases that only say something on
	// real cores set it, mirroring the wall-clock scaling test's gate, so
	// the 1-CPU reference runner degrades gracefully.
	MinProcs int
	// Bench is the benchmark body. It must call b.ReportAllocs.
	Bench func(b *testing.B)
}

// Cases returns the tracked benchmark set in a stable order.
func Cases() []Case {
	cases := []Case{
		{
			// The engine steady state: every fired event schedules its
			// successor, exercising the virtual clock's event freelist.
			Name:  "clock/nested-events",
			Iters: 2_000_000,
			Bench: func(b *testing.B) {
				e := vod.NewVirtualClock()
				count := 0
				var tick func()
				tick = func() {
					count++
					if count < b.N {
						e.After(1, tick)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.After(1, tick)
				e.Run(vod.Seconds(b.N + 2))
			},
		},
		{
			// The measured paper-day shape: ~200 queued events, nearly all
			// arrivals parked far in the future, under one chained
			// near-term engine timer — each op is a push and a pop at
			// realistic queue depth. The chain's one-second delay is
			// inside the clock's near window, so it bypasses the heap.
			Name:  "clock/virtual-parked-200",
			Iters: 2_000_000,
			Bench: func(b *testing.B) {
				e := vod.NewVirtualClock()
				for j := 0; j < 200; j++ {
					e.Schedule(vod.Seconds(b.N+10+(j*7919)%1000), func() {})
				}
				count := 0
				var tick func(any)
				tick = func(any) {
					count++
					if count < b.N {
						e.AfterFunc(1, tick, nil)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.AfterFunc(1, tick, nil)
				e.Run(vod.Seconds(b.N + 2))
			},
		},
		{
			// The Fig. 14 shape: 3,000 parked slots under ten interleaved
			// live chains whose delays are milliseconds — a fill
			// completion or lazy-start wake per disk. Each op is one
			// schedule and one fire; the live events stay in the clock's
			// near run and never sift through the parked heap.
			Name:  "clock/virtual-parked-3000",
			Iters: 2_000_000,
			Bench: func(b *testing.B) {
				e := vod.NewVirtualClock()
				horizon := vod.Seconds(b.N) // 10 chains x >= 2 ms: the run ends well inside it
				for j := 0; j < 3000; j++ {
					e.Schedule(horizon+vod.Seconds(10+(j*7919)%3000), func() {})
				}
				count := 0
				var tick func(any)
				tick = func(arg any) {
					count++
					if count < b.N {
						e.AfterFunc(vod.Seconds(0.002+0.001*float64(arg.(int))), tick, arg)
					}
				}
				chains := make([]any, 10) // boxed once, outside the timed region
				for i := range chains {
					chains[i] = i
				}
				b.ReportAllocs()
				b.ResetTimer()
				for _, c := range chains {
					e.AfterFunc(0, tick, c)
				}
				e.Run(horizon)
			},
		},
		{
			// Cold-clock churn: a fresh clock absorbing a burst of 1000
			// one-shot closures per op. Pays the pool's warm-up cost every
			// iteration — the worst case for the freelist design.
			Name:  "clock/schedule-run-1000",
			Iters: 2_000,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := vod.NewVirtualClock()
					for j := 0; j < 1000; j++ {
						at := vod.Seconds((j * 7919) % 1000)
						e.Schedule(at, func() {})
					}
					e.Run(1000)
				}
			},
		},
		{
			// The per-fill sizing path: one memoized table lookup.
			Name:  "core/size-table-lookup",
			Iters: 2_000_000,
			Bench: func(b *testing.B) {
				spec, _, p := vod.PaperEnvironment()
				tab := vod.NewSizeTable(p, vod.NewMethod(vod.RoundRobin), spec)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = tab.Size(1+i%p.N, i%8)
				}
			},
		},
		{
			// The unmemoized Theorem 1 recurrence — what each fill would
			// cost without the table.
			Name:  "core/dynamic-size-recurrence",
			Iters: 100_000,
			Bench: func(b *testing.B) {
				spec, _, p := vod.PaperEnvironment()
				dl := vod.WorstDiskLatency(vod.NewMethod(vod.RoundRobin), spec, 1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = vod.DynamicBufferSize(p, dl, 1+i%p.N, i%4)
				}
			},
		},
		{
			// The deadline index's per-service operation pair at scale-
			// scenario depth: remove the earliest of 1024 started streams,
			// re-file it at its next deadline. A head advance and a tail
			// append on reused backing arrays — steady state must stay at
			// zero allocs/op.
			Name:  "engine/deadline-index-1024",
			Iters: 500_000,
			Bench: func(b *testing.B) {
				engine.DeadlineIndexChurn(1024, 1024) // warm code paths
				b.ReportAllocs()
				b.ResetTimer()
				engine.DeadlineIndexChurn(1024, b.N)
			},
		},
		{
			// What a Round-Robin dispatch pays at the scale scenario's 700
			// streams per disk: the same pair, then the lazy-start rule
			// scanned over the 700 ascending deadlines in place — the part
			// of a dispatch the churn case above cannot see.
			Name:  "engine/dispatch-lazy-start-700",
			Iters: 500_000,
			Bench: func(b *testing.B) {
				const w = vod.Seconds(1) / 64       // any positive service time
				engine.LazyStartChurn(700, 1400, w) // warm code paths
				b.ReportAllocs()
				b.ResetTimer()
				engine.LazyStartChurn(700, b.N, w)
			},
		},
		{
			// The pool's begin/complete pair at the scale scenario's depth
			// on a slowly rising pool: every stream is refilled once per
			// millisecond-spaced rotation with 0.75, 1 or 1.25 times (and a
			// hair more) what it consumed, so one fill in three sets a
			// high-water record and pays the walk over 700 streams while
			// the other two are proven under the mark and skip it. (A pool
			// refilled with exactly what it consumed ties its own mark on
			// every sample and always walks; that is the fill-cycle probe
			// of the repo benchmark.)
			Name:  "buffer/fill-cycle-rising-700",
			Iters: 500_000,
			Bench: func(b *testing.B) {
				const n, dt = 700, vod.Seconds(0.001)
				rate := vod.Mbps(1.5)
				consumed := rate.DataIn(n * dt)
				p := buffer.NewPool(0)
				for id := 0; id < n; id++ {
					p.Attach(id, rate, 0)
					p.BeginFill(id, 3*consumed, 0)
					p.CompleteFill(id, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				now := vod.Seconds(0)
				for i := 0; i < b.N; i++ {
					now += dt
					p.BeginFill(i%n, consumed*vod.Bits(0.7505+0.25*float64(i%3)), now)
					p.CompleteFill(i%n, now)
				}
			},
		},
	}
	cases = append(cases, clusterCases()...)
	cases = append(cases, wallContentionCases()...)
	for _, day := range dayCases() {
		cases = append(cases, day)
	}
	cases = append(cases, multiRateCases()...)
	cases = append(cases, loopbackCases()...)
	return cases
}

// clusterCases track the fleet router's admission hot path: the serve
// driver calls Route from every connection goroutine, so the book/release
// pair (replica lookup, CAS booking, tallies) must stay allocation-free.
func clusterCases() []Case {
	return []Case{
		{
			Name:  "cluster/router-admit",
			Iters: 2_000_000,
			Bench: func(b *testing.B) {
				spec, cr, _ := vod.PaperEnvironment()
				const titles = 8
				cl, err := cluster.New(cluster.Config{
					Servers:         4,
					DisksPerServer:  2,
					Titles:          titles,
					PopularityTheta: 0,
					Policy: catalog.Replicated{
						Base:       catalog.LeastLoaded{},
						HotTitles:  titles / 2,
						Copies:     4,
						ColdCopies: 2,
						GroupSize:  2,
					},
					Engine: engine.Config{
						Clock:     vod.NewVirtualClock(),
						Allocator: engine.DynamicAllocator{},
						Method:    sched.NewMethod(sched.RoundRobin),
						Spec:      spec,
						CR:        cr,
						Alpha:     1,
						TLog:      vod.Minutes(40),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				rt := cl.Router()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t, ok := rt.Route(i % titles)
					if !ok {
						b.Fatal("router rejected with an idle fleet")
					}
					rt.Release(t.Global)
				}
			},
		},
	}
}

// multiRateCases track the rate-aware serving path end to end: a day of
// arrivals over a three-rung bitrate ladder with downgrading admission,
// so the per-rate sizing contexts, the live-rate planning bound, and the
// ladder walk all sit on the measured path. Its allocs/op rides the same
// baseline gate as the single-rate day cases.
func multiRateCases() []Case {
	return []Case{
		{
			Name:    "sim/day/multirate-downgrade-rr",
			Iters:   1,
			SimDays: true,
			Bench: func(b *testing.B) {
				spec, _, _ := vod.PaperEnvironment()
				ladder := []vod.BitRate{vod.Mbps(1.5), vod.Mbps(1.0), vod.Mbps(0.5)}
				lib, err := vod.NewLibrary(vod.LibraryConfig{
					Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271,
					Video: func(id int) catalog.Video {
						v := catalog.MPEG1Video(id)
						v.Ladder = ladder
						return v
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, 1)
				for i, r := range tr.Requests {
					tr.Requests[i].Rate = lib.Video(r.Video).Rate
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := vod.Simulate(vod.SimConfig{
						Scheme: vod.Dynamic, Method: vod.NewMethod(vod.RoundRobin),
						Spec: spec, CR: ladder[0], Library: lib, Trace: tr, Seed: int64(i),
						Rates: ladder, Downgrade: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Served == 0 {
						b.Fatal("nothing served")
					}
				}
			},
		},
		{
			// The same day with mid-stream adaptation on: the reservoir
			// check rides every service start and the up-switch gates ride
			// every completion, so the whole rate-map overhead — ladder
			// walks, switch re-planning, rung re-booking — lands on the
			// measured path even when few switches fire.
			Name:    "sim/day/multirate-adapt-rr",
			Iters:   1,
			SimDays: true,
			Bench: func(b *testing.B) {
				spec, _, _ := vod.PaperEnvironment()
				ladder := []vod.BitRate{vod.Mbps(1.5), vod.Mbps(1.0), vod.Mbps(0.5)}
				lib, err := vod.NewLibrary(vod.LibraryConfig{
					Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271,
					Video: func(id int) catalog.Video {
						v := catalog.MPEG1Video(id)
						v.Ladder = ladder
						return v
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, 1)
				for i, r := range tr.Requests {
					tr.Requests[i].Rate = lib.Video(r.Video).Rate
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := vod.Simulate(vod.SimConfig{
						Scheme: vod.Dynamic, Method: vod.NewMethod(vod.RoundRobin),
						Spec: spec, CR: ladder[0], Library: lib, Trace: tr, Seed: int64(i),
						Rates: ladder, Downgrade: true, Adapt: &engine.AdaptConfig{},
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Served == 0 {
						b.Fatal("nothing served")
					}
				}
			},
		},
	}
}

// wallContentionCases measure WallClock scheduling throughput under
// eight concurrent clients: all on one shard (the old global-mutex
// arrangement) versus one shard per client (the per-disk sharding).
// On multicore hardware the sharded case shows the refactor's point —
// throughput scaling with shard count, >= 2x at 8 shards — while the
// tracked allocs/op metric pins both hot paths to the pooled-timer
// freelist (amortized zero) on any machine.
func wallContentionCases() []Case {
	const clients = 8
	churn := func(b *testing.B, shardOf func(*vod.WallClock, int) *vod.WallShard) {
		c := vod.NewWallClockTick(1, time.Millisecond)
		defer c.Stop()
		for g := 0; g < clients; g++ { // warm every shard's pool
			shardOf(c, g).Schedule(vod.Seconds(7200), func() {}).Cancel()
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := shardOf(c, g)
				for i := 0; i < b.N/clients; i++ {
					// Far-future expiries: pure scheduling throughput, the
					// driver goroutines never wake to fire.
					s.Schedule(vod.Seconds(7200+i%64), func() {}).Cancel()
				}
			}(g)
		}
		wg.Wait()
	}
	return []Case{
		{
			Name:  "clock/wall-contended-1shard",
			Iters: 400_000,
			Bench: func(b *testing.B) {
				churn(b, func(c *vod.WallClock, _ int) *vod.WallShard { return c.Shard(0) })
			},
		},
		{
			Name:  "clock/wall-sharded-8shards",
			Iters: 400_000,
			Bench: func(b *testing.B) {
				churn(b, func(c *vod.WallClock, g int) *vod.WallShard { return c.Shard(g) })
			},
		},
	}
}

// dayCases builds the end-to-end allocator x method day-simulation matrix
// (the same grid BenchmarkDaySimulation runs under go test).
func dayCases() []Case {
	type cell struct {
		name   string
		scheme vod.Scheme
		kind   vod.MethodKind
	}
	grid := []cell{
		{"sim/day/static-rr", vod.Static, vod.RoundRobin},
		{"sim/day/static-sweep", vod.Static, vod.Sweep},
		{"sim/day/static-gss", vod.Static, vod.GSS},
		{"sim/day/dynamic-rr", vod.Dynamic, vod.RoundRobin},
		{"sim/day/dynamic-sweep", vod.Dynamic, vod.Sweep},
		{"sim/day/dynamic-gss", vod.Dynamic, vod.GSS},
	}
	out := make([]Case, 0, len(grid))
	for _, c := range grid {
		c := c
		out = append(out, Case{
			Name:    c.name,
			Iters:   1,
			SimDays: true,
			Bench: func(b *testing.B) {
				spec, cr, _ := vod.PaperEnvironment()
				lib, err := vod.NewLibrary(vod.LibraryConfig{
					Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271,
				})
				if err != nil {
					b.Fatal(err)
				}
				tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := vod.Simulate(vod.SimConfig{
						Scheme: c.scheme, Method: vod.NewMethod(c.kind),
						Spec: spec, CR: cr, Library: lib, Trace: tr, Seed: int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Served == 0 {
						b.Fatal("nothing served")
					}
				}
			},
		})
	}
	return out
}
