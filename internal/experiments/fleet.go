package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/scale"
	"repro/internal/sched"
)

// FleetRouting runs the fleet scenario (internal/scale): the same
// knee-capacity ramp offered twice to a routed 4×8-disk fleet over a
// narrow Zipf catalog — once with a single copy of every title, once
// with the hot half replicated across servers. The report pairs the
// measured arms with the exact admission bound of "Scalable Distributed
// Video-on-Demand" (arXiv:0804.0743): concurrently admissible streams
// are capped by the max-flow of the bipartite demand graph
//
//	source → title_i (expected concurrent demand, Zipf)
//	title_i → disk_g (∞, one edge per replica segment)
//	disk_g → sink   (the router's knee cap)
//
// so a hot title's audience is bounded by the aggregate cap of the
// disks holding its copies, no matter how idle the rest of the fleet
// is. The bound curve over the copy count is analytic; the simulated
// arms land on it at copies = 1 and copies = Servers.
func FleetRouting(opt Options) (*Report, error) {
	opt = opt.normalized()
	reps := opt.Seeds
	if opt.Quick && reps > 1 {
		reps = 1
	}
	method := sched.RoundRobin
	env := scale.FleetEnvironment()
	table := scale.NewFleetSizeTable(method)
	const (
		servers  = 4
		disksPer = 8
		titles   = 8
	)
	disks := servers * disksPer
	cap := env.N / 2 // the router's Theorem 1 memory-knee cap, floor(N/2)
	target := cap * disks

	// Expected concurrent demand per title under the classic 1/rank
	// Zipf law (theta = 0), at an offered load of the fleet's full knee
	// capacity.
	weights := catalog.ZipfWeights(titles, 0)
	demand := make([]int, titles)
	for i, w := range weights {
		demand[i] = int(w*float64(target) + 0.5)
	}

	// The analytic bound curve: admissible streams vs copies per hot
	// title. Each point lays the catalog out with the fleet's policy at
	// that copy count and takes the max-flow of the demand graph.
	bound := Series{Name: "max-flow admission bound"}
	bounds := make(map[int]int, servers)
	for c := 1; c <= servers; c++ {
		cold := 2
		if cold > c {
			cold = c
		}
		var policy catalog.PlacementPolicy = catalog.Replicated{
			Base:       catalog.LeastLoaded{},
			HotTitles:  titles / 2,
			Copies:     c,
			ColdCopies: cold,
			GroupSize:  disksPer,
		}
		if c == 1 {
			policy = catalog.LeastLoaded{} // the baseline arm's layout
		}
		lib, err := catalog.New(catalog.Config{
			Titles:          titles,
			Disks:           disks,
			Spec:            env.Spec,
			PopularityTheta: 0,
			Policy:          policy,
		})
		if err != nil {
			return nil, err
		}
		flow := admissionBound(lib, demand, disks, cap)
		bounds[c] = flow
		bound.X = append(bound.X, float64(c))
		bound.Y = append(bound.Y, float64(flow))
	}

	// The arm is a grid coordinate, so the two arms of a replication run
	// side by side — the replicated arm first: it is the long one. Both
	// replay the identical trace: the seed depends on the replication
	// alone, so the comparison stays paired.
	runs, err := runGrid(opt, 2, reps, func(arm, rep int) (*scale.FleetResult, error) {
		res, err := scale.RunFleet(scale.FleetConfig{
			Servers:        servers,
			DisksPerServer: disksPer,
			Titles:         titles,
			Method:         method,
			Seed:           opt.runSeed(0, rep, seedTrace),
			SizeTable:      table,
			Quick:          opt.Quick,
			Replicate:      arm == 0,
		})
		if err != nil {
			return nil, err
		}
		opt.progress("fleet-routing: arm %d replication %d/%d done", arm, rep+1, reps)
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	summary := Table{
		Name: "paired arms per replication (identical trace, single copy vs replicated hot set)",
		Columns: []string{
			"rep", "requests", "admitted (single)", "admitted (replicated)", "ratio",
			"failovers", "rejected (replicated)", "peak (single)", "peak (replicated)", "underruns",
		},
	}
	ratios := make([]float64, reps)
	basePeaks := make([]float64, reps)
	repPeaks := make([]float64, reps)
	underruns := 0
	for r, rep := range runs[0] {
		base := runs[1][r]
		ratio := float64(rep.Routed) / float64(base.Routed)
		ratios[r] = ratio
		basePeaks[r] = float64(base.PeakTotal)
		repPeaks[r] = float64(rep.PeakTotal)
		underruns += base.Underruns + rep.Underruns
		summary.Rows = append(summary.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", base.Requests),
			fmt.Sprintf("%d", base.Routed),
			fmt.Sprintf("%d", rep.Routed),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", rep.Failovers),
			fmt.Sprintf("%d", rep.Rejected),
			fmt.Sprintf("%d", base.PeakTotal),
			fmt.Sprintf("%d", rep.PeakTotal),
			fmt.Sprintf("%d", base.Underruns+rep.Underruns),
		})
	}

	demandTable := Table{
		Name:    "expected concurrent demand per title (Zipf theta = 0) vs per-arm disk bandwidth",
		Columns: []string{"title (rank)", "demand (streams)", "single-copy ceiling", "replicated ceiling"},
	}
	for i, d := range demand {
		copies := servers
		if i >= titles/2 {
			copies = 2
		}
		demandTable.Rows = append(demandTable.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", min(d, cap)),
			fmt.Sprintf("%d", min(d, copies*cap)),
		})
	}

	peakBase := Series{Name: "measured peak streams (single copy)"}
	peakBase.AddPoint(1, Summarize(basePeaks))
	peakRep := Series{Name: "measured peak streams (replicated)"}
	peakRep.AddPoint(float64(servers), Summarize(repPeaks))
	ratio := Series{Name: "admitted ratio (replicated/single)"}
	ratio.AddPoint(float64(servers), Summarize(ratios))

	notes := []string{
		fmt.Sprintf("environment: %s, %d Mbps streams, N = %d/disk (Eq. 1), knee cap = %d/disk, %d servers x %d disks, %d titles",
			env.Spec.Name, int(float64(env.CR)/1e6), env.N, cap, servers, disksPer, titles),
		fmt.Sprintf("max-flow bound (arXiv:0804.0743): %d streams at one copy, %d with the hot set replicated fleet-wide — the single-copy fleet cannot commit more than the %d data-holding disks regardless of idle spindles",
			bounds[1], bounds[servers], titles),
		"acceptance gate: admitted ratio >= 2x with 0 underruns in both arms",
	}
	if underruns == 0 {
		notes = append(notes, fmt.Sprintf("sizing guarantee held fleet-wide: 0 underruns across %d paired replications (ramp-aware planning)", reps))
	} else {
		notes = append(notes, fmt.Sprintf("sizing guarantee VIOLATED: %d underruns across %d paired replications", underruns, reps))
	}

	return &Report{
		ID:     "fleet-routing",
		Title:  "Extension: placement policy and routed admission across a multi-server fleet",
		XLabel: "copies per hot title",
		YLabel: "streams",
		Series: []Series{bound, peakBase, peakRep, ratio},
		Tables: []Table{summary, demandTable},
		Notes:  notes,
	}, nil
}

// admissionBound computes the max-flow admission bound: expected title
// demand on one side, per-disk stream caps on the other, an infinite
// edge wherever the library holds a replica segment. The graph is tiny
// (titles + disks nodes), so plain Edmonds-Karp is exact and instant.
func admissionBound(lib *catalog.Library, demand []int, disks, cap int) int {
	titles := lib.Len()
	n := 2 + titles + disks
	src, sink := 0, n-1
	title := func(i int) int { return 1 + i }
	disk := func(g int) int { return 1 + titles + g }

	capacity := make([][]int, n)
	for i := range capacity {
		capacity[i] = make([]int, n)
	}
	inf := 0
	for _, d := range demand {
		inf += d
	}
	for i := 0; i < titles; i++ {
		capacity[src][title(i)] = demand[i]
		for _, rep := range lib.Replicas(i) {
			for _, seg := range rep.Segments {
				capacity[title(i)][disk(seg.Disk)] = inf
			}
		}
	}
	for g := 0; g < disks; g++ {
		capacity[disk(g)][sink] = cap
	}

	flow := 0
	for {
		// BFS for an augmenting path in the residual graph.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for len(queue) > 0 && parent[sink] < 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if parent[v] < 0 && capacity[u][v] > 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[sink] < 0 {
			return flow
		}
		aug := inf
		for v := sink; v != src; v = parent[v] {
			if c := capacity[parent[v]][v]; c < aug {
				aug = c
			}
		}
		for v := sink; v != src; v = parent[v] {
			capacity[parent[v]][v] -= aug
			capacity[v][parent[v]] += aug
		}
		flow += aug
	}
}
