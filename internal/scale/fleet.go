// fleet.go runs the scale scenario the cluster router exists for: a
// four-server fleet of modern nearline disks offered a hot, narrow
// catalog at exactly the fleet's knee capacity. Streams are UHD-grade
// (15 Mbps), so one spindle's Eq. 1 ceiling is N = 159 and the router's
// Theorem 1 memory-knee cap sits at 79 committed streams per disk.
//
// The scenario's point is the catalog-size/bandwidth bound of "Scalable
// Distributed Video-on-Demand" (arXiv:0804.0743): with a single copy of
// each title, a popular title's admissible audience is capped by the
// bandwidth of the one disk holding it — under a classic 1/rank Zipf
// law over 8 titles, the whole fleet can commit only the 8 disks that
// hold data, ~25% of its knee capacity, no matter how idle the other 24
// disks are. Replicating the hot set (popularity-weighted copies spread
// across servers) multiplies each hot title's admissible audience by
// its copy count, and the router's failover actually reaches those
// copies. The scenario runs both arms over the identical trace, so the
// admitted-stream ratio is a paired measurement; the fleet-routing
// experiment gates it at >= 2x with zero underruns.
package scale

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// fleetCRMbps is the fleet streams' consumption rate in Mbps: a
// UHD-grade 15 Mbps, ten times the paper's MPEG-1 rate, putting a
// modern spindle at N = 159 — a regime where a fleet's admission
// decisions are about spindle bandwidth again, as the paper's N = 79
// was.
const fleetCRMbps = 15

// FleetConfig parameterizes a fleet-scenario run. The zero value (after
// normalization, with Replicate false) is the baseline arm: 4 servers ×
// 8 disks, 8 two-hour titles placed one copy each, offered the fleet's
// full knee capacity over a half-hour ramp.
type FleetConfig struct {
	// Servers is the number of single-server engines. Default 4.
	Servers int

	// DisksPerServer is each server's disk count. Default 8.
	DisksPerServer int

	// Titles is the global catalog size. Default 8 — narrow on purpose:
	// the classic Zipf law then concentrates ~37% of all demand on the
	// top title, the regime where single-copy placement starves.
	Titles int

	// TitleLength is every title's playback length. Default two hours.
	TitleLength si.Seconds

	// Replicate switches the replicated arm on: the hot half of the
	// catalog gets one copy per server and the cold half a failover
	// twin, placed least-loaded-first across server groups. Off, every
	// title has the single copy LeastLoaded gives it.
	Replicate bool

	// OverloadFactor is the offered concurrent-viewer level as a
	// multiple of the fleet's knee capacity (cap × disks). Default 1.
	OverloadFactor float64

	// Horizon is the arrival window. Default 30 minutes — a climbing
	// ramp, as in the sharing scenario.
	Horizon si.Seconds

	// Method is the buffer scheduling method. Default Round-Robin.
	Method sched.Kind

	// Seed derives the workload and simulation random streams.
	Seed int64

	// SizeTable, when non-nil, is the shared precomputed sizing table
	// for the fleet environment (see NewFleetSizeTable).
	SizeTable *core.Table

	// Quick shortens the post-ramp grace for tests. The load shape is
	// already the quick shape — the ramp is the scenario.
	Quick bool
}

func (c *FleetConfig) normalize() error {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.DisksPerServer == 0 {
		c.DisksPerServer = 8
	}
	if c.Servers < 2 {
		return fmt.Errorf("scale: fleet needs at least 2 servers, got %d", c.Servers)
	}
	if c.DisksPerServer < 1 {
		return fmt.Errorf("scale: fleet needs at least 1 disk per server, got %d", c.DisksPerServer)
	}
	if c.Titles == 0 {
		c.Titles = 8
	}
	if c.Titles < 2 {
		return fmt.Errorf("scale: fleet needs at least 2 titles, got %d", c.Titles)
	}
	if c.TitleLength == 0 {
		c.TitleLength = si.Hours(2)
	}
	if c.TitleLength < 0 {
		return fmt.Errorf("scale: negative title length %v", c.TitleLength)
	}
	if c.OverloadFactor == 0 {
		c.OverloadFactor = 1
	}
	if c.OverloadFactor < 0 {
		return fmt.Errorf("scale: negative overload factor %g", c.OverloadFactor)
	}
	if c.Horizon == 0 {
		c.Horizon = si.Minutes(30)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("scale: negative horizon %v", c.Horizon)
	}
	return nil
}

// FleetEnvironment derives the fleet's fixed environment: the modern
// nearline spec and its Eq. 1 capacity for 15 Mbps streams.
func FleetEnvironment() Env {
	spec := Spec()
	cr := si.Mbps(fleetCRMbps)
	return Env{Spec: spec, CR: cr, N: spec.MaxConcurrent(cr), Alpha: alpha}
}

// NewFleetSizeTable builds the fleet's dynamic sizing table for sharing
// across replications via FleetConfig.SizeTable.
func NewFleetSizeTable(method sched.Kind) *core.Table {
	env := FleetEnvironment()
	p := core.Params{TR: env.Spec.TransferRate, CR: env.CR, N: env.N, Alpha: alpha}
	m := sched.NewMethod(method)
	return core.NewTable(p, m.DLModel(env.Spec))
}

// FleetPolicy returns the placement policy a fleet arm uses: one
// balanced copy per title, or — replicated — one copy per server for
// the hot half of the catalog and a failover twin for the cold half,
// spread across server groups.
func FleetPolicy(replicate bool, servers, disksPerServer, titles int) catalog.PlacementPolicy {
	if !replicate {
		return catalog.LeastLoaded{}
	}
	copies := servers
	return catalog.Replicated{
		Base:       catalog.LeastLoaded{},
		HotTitles:  titles / 2,
		Copies:     copies,
		ColdCopies: 2,
		GroupSize:  disksPerServer,
	}
}

// ServerLoad is one server's deterministic tally over a fleet run.
type ServerLoad struct {
	// Routed counts arrivals the router steered to this server.
	Routed int

	// Served counts streams that received their first data here.
	Served int

	// Peak is the largest number of streams simultaneously in service
	// on this server.
	Peak int
}

// FleetResult is one fleet-scenario run's outcome.
type FleetResult struct {
	// Env is the derived environment the run used (15 Mbps streams).
	Env Env

	// CapPerDisk is the router's knee cap: the committed ceiling per
	// disk (min(floor(N/2), N)).
	CapPerDisk int

	// Requests is the number of requests the generated ramp contained.
	Requests int

	// Routed counts arrivals the router accepted; Failovers of those
	// did not get their primary replica; Rejected found every replica
	// saturated.
	Routed, Failovers, Rejected int

	// PerServer tallies each server, indexed by server id.
	PerServer []ServerLoad

	// PeakTotal is the largest number of streams in service across the
	// fleet at once.
	PeakTotal int

	// Underruns counts buffer starvations across every disk of every
	// server — zero is the sizing guarantee holding fleet-wide.
	Underruns int
}

// fleetObserver tallies per-server loads. One instance is shared by all
// servers (the scenario runs on a single VirtualClock event loop, so
// plain counters are safe and deterministic); each server's callbacks
// arrive through a serverView bound to its index.
type fleetObserver struct {
	loads   []ServerLoad
	current []int
	total   int
	peak    int
}

// serverView adapts one server's engine callbacks onto the shared
// fleet observer.
type serverView struct {
	engine.NopObserver
	o *fleetObserver
	s int
}

func (v serverView) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	o := v.o
	o.current[v.s]++
	if o.current[v.s] > o.loads[v.s].Peak {
		o.loads[v.s].Peak = o.current[v.s]
	}
	o.total++
	if o.total > o.peak {
		o.peak = o.total
	}
}

func (v serverView) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	v.o.current[v.s]--
	v.o.total--
}

func (v serverView) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	v.o.loads[v.s].Served++
}

// RunFleet executes one fleet-scenario run. Like Run, it is safe to call
// concurrently and returns identical results for equal configs.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	env := FleetEnvironment()
	length := cfg.TitleLength
	clock := engine.NewVirtualClock()
	obs := &fleetObserver{
		loads:   make([]ServerLoad, cfg.Servers),
		current: make([]int, cfg.Servers),
	}
	cl, err := cluster.New(cluster.Config{
		Servers:        cfg.Servers,
		DisksPerServer: cfg.DisksPerServer,
		Titles:         cfg.Titles,
		// Classic 1/rank Zipf (theta = 0): the concentration that makes
		// single-copy placement the bottleneck.
		PopularityTheta: 0,
		Video: func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Rate = env.CR
			v.Length = length
			return v
		},
		Policy: FleetPolicy(cfg.Replicate, cfg.Servers, cfg.DisksPerServer, cfg.Titles),
		Engine: engine.Config{
			Clock:                 clock,
			Allocator:             engine.DynamicAllocator{},
			Method:                sched.NewMethod(cfg.Method),
			Spec:                  env.Spec,
			CR:                    env.CR,
			Alpha:                 alpha,
			TLog:                  si.Minutes(40),
			ChurnSafeAdmission:    true,
			DeadlineAwareBubbleUp: true,
			RampAwarePlanning:     true,
			Seed:                  cfg.Seed ^ 0xf1ee7,
			SizeTable:             cfg.SizeTable,
		},
		Observer: func(s int) engine.Observer { return serverView{o: obs, s: s} },
	})
	if err != nil {
		return nil, err
	}
	router := cl.Router()

	// Size a flat arrival rate so the concurrent-viewer level reaches
	// OverloadFactor × the fleet's knee capacity by the end of the ramp
	// (same M/G/∞ ramp math as the sharing scenario).
	maxViewing := workload.MaxViewing
	if length < maxViewing {
		maxViewing = length
	}
	target := cfg.OverloadFactor * float64(router.Cap()*cfg.Servers*cfg.DisksPerServer)
	T, V := float64(cfg.Horizon), float64(maxViewing)
	var rate float64
	if T < V {
		rate = target / (T - T*T/(2*V))
	} else {
		rate = target / (V / 2)
	}
	day := workload.NewSchedule(cfg.Horizon, []float64{rate})
	trace := workload.Generate(day, cl.Library(), cfg.Seed)

	res := &FleetResult{
		Env:        env,
		CapPerDisk: router.Cap(),
		Requests:   len(trace.Requests),
		PerServer:  obs.loads,
	}
	for _, req := range trace.Requests {
		req := req
		clock.Schedule(req.Arrival, func() {
			if t, ok := cl.Submit(req); ok {
				obs.loads[t.Server].Routed++
			}
		})
	}

	grace := si.Minutes(30)
	if cfg.Quick {
		grace = si.Minutes(5)
	}
	clock.Run(cfg.Horizon + grace)

	stats := router.Stats()
	res.Routed = int(stats.Routed)
	res.Failovers = int(stats.Failovers)
	res.Rejected = int(stats.Rejected)
	res.PeakTotal = obs.peak
	for s := 0; s < cl.Servers(); s++ {
		sys := cl.System(s)
		for d := 0; d < sys.Disks(); d++ {
			res.Underruns += sys.Disk(d).Pool().Stats().Underruns
		}
	}
	return res, nil
}
