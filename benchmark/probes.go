package main

import (
	"time"

	vod "repro"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/livemetrics"
	"repro/internal/scale"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/si"
)

// Probes time the layers that have no plug point to interpose on: the
// layer's public functions called directly in a loop, at the stream
// depth of the paper's day (25) and of the scale scenario (700) where
// depth matters. Fixed iteration counts, median of probeReps
// repetitions, results kept observable through sink.
const probeReps = 5

// probeNS returns the median nanoseconds per call of fn over iters calls.
func probeNS(iters int, fn func(i int)) float64 {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		ns = append(ns, float64(time.Since(t0))/float64(iters))
	}
	return median(ns)
}

// probeS returns the median seconds one call of fn takes.
func probeS(fn func()) float64 { return probeNS(1, func(int) { fn() }) / 1e9 }

var probeDepths = []struct {
	suffix string
	n      int
}{{"_d25", 25}, {"_d700", 700}}

// steadyPool attaches n streams to a fresh pool, for the buffer probes.
func steadyPool(n int, rate si.BitRate) *buffer.Pool {
	p := buffer.NewPool(0)
	for id := 0; id < n; id++ {
		p.Attach(id, rate, 0)
	}
	return p
}

// runProbes measures every probed per-layer metric for the given seed's
// paper-day inputs.
func runProbes(seed int64) (map[string]float64, error) {
	spec, cr, params := vod.PaperEnvironment()
	libCfg := vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271}
	lib, err := vod.NewLibrary(libCfg)
	if err != nil {
		return nil, err
	}
	day := vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24))
	out := map[string]float64{
		"workload.requests": float64(len(vod.GenerateWorkload(day, lib, seed).Requests)),
	}
	out["workload.generate_s"] = probeS(func() { sink += float64(len(vod.GenerateWorkload(day, lib, seed).Requests)) })
	out["catalog.new_library_s"] = probeS(func() {
		l, _ := catalog.New(libCfg)
		sink += float64(l.Len())
	})

	rr := sched.NewMethod(sched.RoundRobin)
	var tab *core.Table
	out["core.table_build_s_n79"] = probeS(func() { tab = core.NewTable(params, rr.DLModel(spec)) })
	out["core.table_build_s_n1599"] = probeS(func() { sink += float64(scale.NewSizeTable(sched.RoundRobin).Params().N) })
	out["core.table_size_ns"] = probeNS(1_000_000, func(i int) {
		n := 1 + i%params.N
		sink += float64(tab.Size(n, i%(params.N-n+1)))
	})
	book := core.NewBook()
	out["core.book_set_ns"] = probeNS(500_000, func(i int) {
		book.Set(i%25, core.Allocation{N: 1 + i%25, K: i % 5})
	})

	// One fill cycle: each stream is refilled, round-robin, with exactly
	// what it consumed since its last turn.
	const step = si.Seconds(0.01)
	for _, d := range probeDepths {
		pool, now := steadyPool(d.n, cr), si.Seconds(0)
		fill := cr.DataIn(step * si.Seconds(d.n))
		out["buffer.fill_cycle_ns"+d.suffix] = probeNS(200_000, func(i int) {
			id := i % d.n
			now += step
			pool.BeginFill(id, fill, now)
			pool.CompleteFill(id, now)
			sink += float64(pool.Level(id, now))
		})
		out["buffer.usage_ns"+d.suffix] = probeNS(2_000_000/d.n, func(int) { sink += float64(pool.Usage(now)) })
		out["engine.scheduler.deadline_index_ns"+d.suffix] = probeS(func() {
			sink += float64(engine.DeadlineIndexChurn(d.n, 200_000))
		}) * 1e9 / 200_000
	}
	pool := steadyPool(25, cr)
	out["buffer.attach_detach_ns"] = probeNS(200_000, func(i int) {
		pool.Attach(1000+i, cr, 0)
		pool.Detach(1000+i, 0)
	})

	disk := diskmodel.NewDisk(spec, seed)
	out["diskmodel.read_ns"] = probeNS(1_000_000, func(i int) {
		sink += float64(disk.Read(i*7919%spec.Cylinders, si.Megabits(1)))
	})
	place := lib.Placement(0)
	out["catalog.disk_offset_ns"] = probeNS(1_000_000, func(i int) {
		sink += float64(place.DiskOffset(si.Megabits(float64(i%8000)), si.Megabits(1)))
	})
	out["catalog.cylinder_at_ns"] = probeNS(1_000_000, func(i int) {
		sink += float64(place.CylinderAt(spec, si.Seconds(i%7200)))
	})

	st := &engine.Stream{}
	fan := engine.Observers{engine.NopObserver{}, engine.NopObserver{}, engine.NopObserver{}}
	out["engine.observer.fanout_ns"] = probeNS(1_000_000, func(i int) { fan.OnFillComplete(0, st, 0, si.Seconds(i)) })

	wall := engine.NewWallClock(1)
	shard, nop := wall.Shard(0), func() {}
	out["engine.wallclock.schedule_cancel_ns"] = probeNS(200_000, func(i int) {
		shard.Schedule(si.Hours(1)+si.Seconds(i), nop).Cancel()
	})
	wall.Stop()

	line := []byte("WATCH 5 7\n")
	out["serve.parse_command_ns"] = probeNS(1_000_000, func(int) {
		cmd, _ := serve.ParseCommandBytes(line)
		sink += cmd.Seconds
	})
	col := livemetrics.NewCollector(2)
	out["livemetrics.callback_ns"] = probeNS(250_000, func(i int) {
		now := si.Seconds(i)
		col.OnAdmit(i&1, st, now)
		col.OnFillComplete(i&1, st, 1, now)
		col.OnStart(i&1, st, now)
		col.OnDepart(i&1, st, now)
	}) / 4
	hist := livemetrics.NewHistogram(1e-6)
	out["livemetrics.histogram_record_ns"] = probeNS(1_000_000, func(i int) { hist.Record(float64(i%1000) * 1e-6) })
	return out, nil
}
