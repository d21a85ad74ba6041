package experiments

import (
	"fmt"

	"repro/internal/scale"
	"repro/internal/sched"
	"repro/internal/si"
)

// ScaleLargeN runs the large-N scenario (internal/scale): the paper's
// dynamic scheme on a server of modern nearline disks — N = 1599 streams
// per spindle versus the Barracuda's 79 — with eight disks driven to
// ~700 concurrent streams each at peak. The report carries two findings
// the 1997 environment could not surface:
//
//   - The memory knee (analysis table): Theorem 1's recurrence anchors
//     every buffer size to the full-load boundary BS(N) ≈ 8 GB, and the
//     anchoring product stops decaying once n passes roughly half of N,
//     so per-buffer sizes explode long before Eq. 1's bandwidth limit.
//     Memory economics, not bandwidth, cap a modern disk near 50% stream
//     utilization.
//
//   - Zero underruns at scale (simulation): with the engine's churn-safe
//     admission budgets and deadline-aware BubbleUp (see internal/scale's
//     package comment), the sizing guarantee holds through the peak-slot
//     ramp at ~5 500 concurrent streams server-wide.
//
// The simulation arm always runs the scenario's Quick shape — one peak
// half-hour instead of a 24-hour day — because the large-n regime is
// reached either way and a full day is hours of CPU per replication.
func ScaleLargeN(opt Options) (*Report, error) {
	opt = opt.normalized()
	env := scale.Environment()
	method := sched.RoundRobin

	// The sizing table is the dominant per-run setup cost at N = 1599;
	// one memoized instance serves every replication and every later Run
	// (scale.Run treats it as immutable, and rejects a mismatched one).
	table := sharedSizeTable(env.Spec, method, env.CR, env.Alpha)

	knee := Table{
		Name:    fmt.Sprintf("the memory knee: per-buffer size BS(n, k=16) toward N = %d", env.N),
		Columns: []string{"n (streams)", "n/N", "BS(n, 16) per buffer", "growth vs previous row"},
	}
	var prev si.Bits
	for _, n := range []int{200, 400, 640, 800, 1000, 1200} {
		size := table.Size(n, 16)
		growth := "-"
		if prev > 0 {
			growth = fmt.Sprintf("%.1fx", float64(size)/float64(prev))
		}
		knee.Rows = append(knee.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", float64(n)/float64(env.N)),
			size.String(),
			growth,
		})
		prev = size
	}

	reps := opt.Seeds
	runs, err := runGrid(opt, 1, reps, func(_, rep int) (*scale.Result, error) {
		res, err := scale.Run(scale.Config{
			Method:    method,
			Seed:      opt.runSeed(0, rep, seedTrace),
			SizeTable: table,
			Quick:     true,
		})
		if err != nil {
			return nil, err
		}
		opt.progress("scale-largen: replication %d/%d done", rep+1, reps)
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	results := runs[0]

	disks := len(results[0].PerDisk)
	peaks := Series{Name: "peak streams"}
	served := Series{Name: "streams served"}
	for d := 0; d < disks; d++ {
		peakSamples := make([]float64, reps)
		servedSamples := make([]float64, reps)
		for r, res := range results {
			peakSamples[r] = float64(res.PerDisk[d].Peak)
			servedSamples[r] = float64(res.PerDisk[d].Served)
		}
		peaks.AddPoint(float64(d), Summarize(peakSamples))
		served.AddPoint(float64(d), Summarize(servedSamples))
	}

	summary := Table{
		Name:    "peak-slot replications (Quick shape: one half-hour peak)",
		Columns: []string{"rep", "requests", "served", "rejected", "underruns", "peak streams (server)", "peak memory"},
	}
	underruns := 0
	for r, res := range results {
		underruns += res.Sim.Underruns
		summary.Rows = append(summary.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", res.Requests),
			fmt.Sprintf("%d", res.Sim.Served),
			fmt.Sprintf("%d", res.Sim.Rejected),
			fmt.Sprintf("%d", res.Sim.Underruns),
			fmt.Sprintf("%d", res.PeakTotal),
			res.Sim.PeakMemory.String(),
		})
	}

	notes := []string{
		fmt.Sprintf("environment: %s, N = %d streams/disk (Eq. 1), %d disks, alpha = 1",
			env.Spec.Name, env.N, disks),
		"memory knee: the recurrence anchors sizes to BS(N); past n ≈ N/2 the anchoring product stops decaying and per-buffer sizes explode — the scenario's 700-streams/disk peak sits just under the knee",
		"runs use churn-safe admission budgets and deadline-aware BubbleUp; without them, replacement churn and deadline clusters void the sizing guarantee at this scale (see internal/scale)",
	}
	if underruns == 0 {
		notes = append(notes, fmt.Sprintf("sizing guarantee held: 0 underruns across %d replications", reps))
	} else {
		notes = append(notes, fmt.Sprintf("sizing guarantee VIOLATED: %d underruns across %d replications", underruns, reps))
	}

	return &Report{
		ID:     "scale-largen",
		Title:  "Extension: the dynamic scheme at modern-disk scale (thousands of streams)",
		XLabel: "disk",
		YLabel: "streams",
		Series: []Series{peaks, served},
		Tables: []Table{knee, summary},
		Notes:  notes,
	}, nil
}

// ZipfSharing runs the stream-sharing scenario (internal/scale): the
// same Zipf-catalog trace offered twice to a server overloaded to four
// times its Eq. 1 aggregate stream capacity — once with every viewer as
// a private engine stream, once fronted by the sharing layer's prefix
// cache and viewer batching. The report's quantity is the paired
// admission ratio: sharing admits the whole overload (several times the
// baseline's capacity-bound count) while the engine's own stream load
// falls, with zero underruns.
//
// The scenario runs on two disks rather than the full eight: the
// measured ratio is per-disk overload against per-disk capacity, which
// is independent of the server width, and the baseline arm's cost grows
// with the disk count (every one of its N = 1599 slots per disk fills
// with a private stream).
func ZipfSharing(opt Options) (*Report, error) {
	opt = opt.normalized()
	reps := opt.Seeds
	if opt.Quick && reps > 1 {
		reps = 1
	}
	method := sched.RoundRobin
	env := scale.Environment()
	table := sharedSizeTable(env.Spec, method, env.CR, env.Alpha)
	const disks = 2

	// The arm is a grid coordinate, so the two arms of a replication run
	// side by side. Both replay the identical trace: the seed depends on
	// the replication alone, so the comparison stays paired.
	runs, err := runGrid(opt, 2, reps, func(arm, rep int) (*scale.SharingResult, error) {
		res, err := scale.RunSharing(scale.SharingConfig{
			Disks:     disks,
			Method:    method,
			Seed:      opt.runSeed(0, rep, seedTrace),
			SizeTable: table,
			Sharing:   arm == 1,
		})
		if err != nil {
			return nil, err
		}
		opt.progress("zipf-sharing: arm %d replication %d/%d done", arm, rep+1, reps)
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	summary := Table{
		Name: "paired arms per replication (identical trace, sharing off vs on)",
		Columns: []string{
			"rep", "viewers offered", "admitted (private)", "admitted (shared)", "ratio",
			"rejected (shared)", "underruns (shared)", "engine peak (private)", "engine peak (shared)",
		},
	}
	mech := Table{
		Name:    "sharing-layer mechanism counts per replication",
		Columns: []string{"rep", "leaders", "merged", "batched", "cache-only", "cache-hit data", "peak fanout", "pinned titles"},
	}
	underruns, rejected := 0, 0
	ratios := make([]float64, reps)
	for r, base := range runs[0] {
		shared := runs[1][r]
		ratio := float64(shared.Admitted) / float64(base.Admitted)
		ratios[r] = ratio
		underruns += shared.Sim.Underruns
		rejected += shared.Rejected
		summary.Rows = append(summary.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", base.Requests),
			fmt.Sprintf("%d", base.Admitted),
			fmt.Sprintf("%d", shared.Admitted),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", shared.Rejected),
			fmt.Sprintf("%d", shared.Sim.Underruns),
			fmt.Sprintf("%d", base.EngineStreamsPeak),
			fmt.Sprintf("%d", shared.EngineStreamsPeak),
		})
		tot := shared.Share.Totals
		mech.Rows = append(mech.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", tot.Leaders),
			fmt.Sprintf("%d", tot.Merged),
			fmt.Sprintf("%d", tot.Batched),
			fmt.Sprintf("%d", tot.CacheOnly),
			tot.CacheHitBits.String(),
			fmt.Sprintf("%d", tot.PeakFanout),
			fmt.Sprintf("%d", shared.Share.CachedTitles),
		})
	}

	ratio := Series{Name: "admitted(shared)/admitted(private)"}
	ratio.AddPoint(0, Summarize(ratios))

	notes := []string{
		fmt.Sprintf("environment: %s, N = %d streams/disk (Eq. 1), %d disks, offered load 4x aggregate capacity over a 30-minute ramp",
			env.Spec.Name, env.N, disks),
		"cache budget: 3/4 of the catalog's 5-minute prefix footprint, so the coldest titles go unpinned and pinning order is popularity-aware",
		"acceptance gate: ratio >= 3x with 0 rejections and 0 underruns in the sharing arm",
	}
	if underruns == 0 && rejected == 0 {
		notes = append(notes, fmt.Sprintf("sharing arm clean: 0 rejections, 0 underruns across %d replications", reps))
	} else {
		notes = append(notes, fmt.Sprintf("sharing arm DEGRADED: %d rejections, %d underruns across %d replications", rejected, underruns, reps))
	}

	return &Report{
		ID:     "zipf-sharing",
		Title:  "Extension: stream sharing under Zipf overload (prefix cache + viewer batching)",
		XLabel: "replication",
		YLabel: "admission ratio",
		Series: []Series{ratio},
		Tables: []Table{summary, mech},
		Notes:  notes,
	}, nil
}
