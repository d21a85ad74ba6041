package cluster

import (
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/si"
	"repro/internal/workload"
)

// Config parameterizes a fleet.
type Config struct {
	// Servers is the number of single-server engines to compose.
	Servers int

	// DisksPerServer is each server's disk count.
	DisksPerServer int

	// Titles is the global catalog size.
	Titles int

	// Video overrides the default MPEG-1 title parameters when non-nil.
	Video func(id int) catalog.Video

	// PopularityTheta is the catalog's Zipf popularity parameter.
	PopularityTheta float64

	// Policy lays the global catalog out over the fleet's
	// Servers×DisksPerServer disks. Every replica must stay within one
	// server (striping across servers would need cross-server fill
	// scheduling). nil defaults to LeastLoaded — one balanced copy per
	// title, no replication.
	Policy catalog.PlacementPolicy

	// Engine is the per-server engine template: Allocator, Method, Spec,
	// CR, Alpha, TLog, admission flags, PageSize, Seed, and SizeTable
	// are taken from it. Clock is the fleet-global domain — server s's
	// disk d runs on Clock.DiskClock(s·DisksPerServer + d), so a
	// VirtualClock keeps the whole fleet on one deterministic event loop
	// while a WallClock gives every disk in the fleet its own shard.
	// Library and Observer are overridden per server (the template's
	// Observer, if any, still receives each server's callbacks with
	// server-local disk indices).
	Engine engine.Config

	// KneeFraction positions the router's per-disk admission cap at
	// floor(KneeFraction·N): the Theorem 1 memory knee. 0 defaults to
	// 0.5 (cap n near N/2); values >= 1 leave bandwidth (N) as the only
	// ceiling.
	KneeFraction float64

	// Observer, when non-nil, supplies an extra per-server observer
	// (e.g. the serve driver's session relay). Callbacks carry
	// server-local disk indices.
	Observer func(server int) engine.Observer
}

// Cluster is a routed fleet: one engine.System per server over a
// policy-placed global catalog, fronted by the admission Router.
type Cluster struct {
	cfg      Config
	global   *catalog.Library
	libs     []*catalog.Library
	systems  []*engine.System
	router   *Router
	disksPer int
	nextID   atomic.Int64
}

// shardOffset maps one server's disk indices into the fleet-global clock
// domain.
type shardOffset struct {
	dom engine.ClockDomain
	off int
}

func (s shardOffset) DiskClock(i int) engine.Clock { return s.dom.DiskClock(s.off + i) }

// releaseObserver returns router bookings as streams leave one server's
// engines — departures and outright rejections both free the slot the
// router charged at Route (or chargeContinuation) time.
type releaseObserver struct {
	engine.NopObserver
	r   *Router
	off int // the server's first global disk
}

func (o releaseObserver) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	o.r.Release(o.off + disk)
}

func (o releaseObserver) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	o.r.Release(o.off + disk)
}

// New builds the fleet: the global catalog is laid out by the policy
// over all Servers×DisksPerServer disks, each server gets a library view
// of exactly the replicas living on its disks (same titles, same
// popularity, local disk indices), and the router indexes every replica
// fleet-wide.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 server, got %d", cfg.Servers)
	}
	if cfg.DisksPerServer < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 disk per server, got %d", cfg.DisksPerServer)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = catalog.LeastLoaded{}
	}
	D := cfg.DisksPerServer
	global, err := catalog.New(catalog.Config{
		Titles:          cfg.Titles,
		Disks:           cfg.Servers * D,
		Spec:            cfg.Engine.Spec,
		PopularityTheta: cfg.PopularityTheta,
		Video:           cfg.Video,
		Policy:          policy,
	})
	if err != nil {
		return nil, err
	}

	// Carve per-server layouts: a replica belongs to the server holding
	// all its segments; one straddling servers is a policy bug.
	views := make([]catalog.Explicit, cfg.Servers)
	for s := range views {
		views[s] = make(catalog.Explicit, cfg.Titles)
	}
	for id := 0; id < cfg.Titles; id++ {
		for ri, rep := range global.Replicas(id) {
			srv := rep.Segments[0].Disk / D
			local := make([]int, len(rep.Segments))
			for i, seg := range rep.Segments {
				if seg.Disk/D != srv {
					return nil, fmt.Errorf("cluster: policy %s: title %d replica %d straddles servers %d and %d",
						global.PolicyName(), id, ri, srv, seg.Disk/D)
				}
				local[i] = seg.Disk - srv*D
			}
			views[srv][id] = append(views[srv][id], catalog.ReplicaSpec{Disks: local})
		}
	}

	c := &Cluster{cfg: cfg, global: global, disksPer: D}
	knee := cfg.KneeFraction
	if knee == 0 {
		knee = 0.5
	}
	n := core.DeriveN(cfg.Engine.Spec.TransferRate, cfg.Engine.CR)
	cap := int(knee * float64(n))
	if cap > n {
		cap = n
	}
	if cap < 1 {
		cap = 1
	}
	c.router = newRouter(global, cfg.Servers, D, cap)

	for s := 0; s < cfg.Servers; s++ {
		lib, err := catalog.New(catalog.Config{
			Titles:          cfg.Titles,
			Disks:           D,
			Spec:            cfg.Engine.Spec,
			PopularityTheta: cfg.PopularityTheta,
			Video:           cfg.Video,
			Policy:          views[s],
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d library: %w", s, err)
		}
		obs := engine.Observers{releaseObserver{r: c.router, off: s * D}}
		if cfg.Engine.Observer != nil {
			obs = append(obs, cfg.Engine.Observer)
		}
		if cfg.Observer != nil {
			if o := cfg.Observer(s); o != nil {
				obs = append(obs, o)
			}
		}
		eng := cfg.Engine
		eng.Clock = shardOffset{dom: cfg.Engine.Clock, off: s * D}
		eng.Library = lib
		eng.Observer = obs
		// Decorrelate the servers' rotational-delay streams.
		eng.Seed = cfg.Engine.Seed + int64(s)*0x9e3779b9
		sys, err := engine.New(eng)
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", s, err)
		}
		c.libs = append(c.libs, lib)
		c.systems = append(c.systems, sys)
	}
	return c, nil
}

// Library exposes the global catalog (all replicas, fleet-wide disk
// indices) — what traces are generated against.
func (c *Cluster) Library() *catalog.Library { return c.global }

// ServerLibrary exposes server s's local view of the catalog.
func (c *Cluster) ServerLibrary(s int) *catalog.Library { return c.libs[s] }

// Servers reports the number of servers.
func (c *Cluster) Servers() int { return len(c.systems) }

// DisksPerServer reports each server's disk count.
func (c *Cluster) DisksPerServer() int { return c.disksPer }

// System exposes server s's engine.
func (c *Cluster) System(s int) *engine.System { return c.systems[s] }

// Router exposes the admission router.
func (c *Cluster) Router() *Router { return c.router }

// Submit routes one arrival and feeds it to the chosen server's engine.
// The request's Disk field is overwritten with the routing decision.
// ok == false means the router rejected it (no replica had headroom).
//
// For a striped replica the viewing is split across the segments in
// playback order: the first segment's stream arrives now, and each later
// segment's stream is scheduled on its own disk's clock at the moment
// playback reaches it (charged to that disk as a continuation). Submit
// must be called in clock order — from the driver's arrival events on a
// VirtualClock, or under the target shard's lock on a WallClock (the
// serve driver routes explicitly instead and handles its own locking).
func (c *Cluster) Submit(req workload.Request) (Target, bool) {
	t, ok := c.router.Route(req.Video)
	if !ok {
		return Target{}, false
	}
	rep := c.global.Replicas(req.Video)[t.Replica]
	req.Disk = t.Disk
	if len(rep.Segments) == 1 {
		c.systems[t.Server].OnArrival(req)
		return t, true
	}
	// Striped: segment j plays for Span_j/rate seconds at the stream's
	// own consumption rate; the viewer's request chains across segments
	// until the viewing is exhausted.
	cr := req.Rate
	if cr <= 0 {
		cr = c.cfg.Engine.CR
	}
	offset := si.Seconds(0)
	for j, seg := range rep.Segments {
		if req.Viewing <= offset {
			break
		}
		dur := si.Seconds(float64(seg.ContentSize()) / float64(cr))
		v := req.Viewing - offset
		if v > dur {
			v = dur
		}
		g := seg.Disk
		part := workload.Request{
			ID:      req.ID,
			Arrival: req.Arrival + offset,
			Video:   req.Video,
			Disk:    g % c.disksPer,
			Viewing: v,
			Rate:    req.Rate,
		}
		if j == 0 {
			c.systems[g/c.disksPer].OnArrival(part)
		} else {
			part.ID = int(c.nextID.Add(1))
			sys := c.systems[g/c.disksPer]
			c.cfg.Engine.Clock.DiskClock(g).Schedule(part.Arrival, func() {
				c.router.chargeContinuation(g)
				sys.OnArrival(part)
			})
		}
		offset += dur
	}
	return t, true
}
