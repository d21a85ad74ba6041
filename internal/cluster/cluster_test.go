package cluster

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskmodel"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// testConfig is a small paper-environment fleet: 2 servers × 2 disks.
func testConfig(clock engine.ClockDomain, policy catalog.PlacementPolicy) Config {
	spec := diskmodel.Barracuda9LP()
	return Config{
		Servers:         2,
		DisksPerServer:  2,
		Titles:          4,
		PopularityTheta: 0,
		Policy:          policy,
		Engine: engine.Config{
			Clock:     clock,
			Allocator: engine.DynamicAllocator{},
			Method:    sched.NewMethod(sched.RoundRobin),
			Spec:      spec,
			CR:        si.Mbps(1.5),
			Alpha:     1,
			TLog:      si.Minutes(40),
			Seed:      1,
		},
	}
}

// The fleet carves per-server library views out of the globally placed
// catalog: each server sees exactly the replicas living on its disks,
// re-indexed to local disk numbers, under the same titles and
// popularity.
func TestPerServerLibraryViews(t *testing.T) {
	cl, err := New(testConfig(engine.NewVirtualClock(), catalog.Replicated{
		Base:       catalog.LeastLoaded{},
		HotTitles:  2,
		Copies:     2,
		ColdCopies: 1,
		GroupSize:  2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	global := cl.Library()
	for id := 0; id < global.Len(); id++ {
		seen := 0
		for s := 0; s < cl.Servers(); s++ {
			for _, rep := range cl.ServerLibrary(s).Replicas(id) {
				seen++
				for _, seg := range rep.Segments {
					if seg.Disk < 0 || seg.Disk >= cl.DisksPerServer() {
						t.Errorf("server %d title %d segment on local disk %d, want [0, %d)",
							s, id, seg.Disk, cl.DisksPerServer())
					}
				}
			}
		}
		if want := len(global.Replicas(id)); seen != want {
			t.Errorf("title %d: server views hold %d replicas, global catalog %d", id, seen, want)
		}
	}
	// Hot titles must be reachable on both servers (Copies = Servers).
	for id := 0; id < 2; id++ {
		for s := 0; s < cl.Servers(); s++ {
			if len(cl.ServerLibrary(s).Replicas(id)) == 0 {
				t.Errorf("hot title %d has no replica on server %d", id, s)
			}
		}
	}
}

// A stripe that crosses a server boundary cannot be served by any one
// engine; composition must refuse the layout instead of quietly
// mis-serving it.
func TestStraddlingStripeRejected(t *testing.T) {
	_, err := New(testConfig(engine.NewVirtualClock(), catalog.Striped{Width: 3}))
	if err == nil || !strings.Contains(err.Error(), "straddles") {
		t.Fatalf("3-wide stripe over 2-disk servers: err = %v, want a straddling error", err)
	}
}

// The router prefers the primary replica, fails over to the
// least-committed copy when the primary's disk is at the cap, and
// rejects only with every replica saturated; Release restores headroom.
func TestRouterFailoverAndRelease(t *testing.T) {
	cl, err := New(testConfig(engine.NewVirtualClock(), catalog.Replicated{
		Base:      catalog.LeastLoaded{},
		HotTitles: 4, Copies: 2, ColdCopies: 2, GroupSize: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rt := cl.Router()
	cap := rt.Cap()
	primary := cl.Library().Replicas(0)[0].Segments[0].Disk
	secondary := cl.Library().Replicas(0)[1].Segments[0].Disk

	for i := 0; i < cap; i++ {
		target, ok := rt.Route(0)
		if !ok || target.Global != primary {
			t.Fatalf("route %d: target %+v ok=%v, want the primary disk %d", i, target, ok, primary)
		}
	}
	target, ok := rt.Route(0)
	if !ok || target.Global != secondary {
		t.Fatalf("primary full: target %+v ok=%v, want failover to disk %d", target, ok, secondary)
	}
	if got := rt.Stats().Failovers; got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	for i := 1; i < cap; i++ {
		if _, ok := rt.Route(0); !ok {
			t.Fatalf("failover route %d rejected below the cap", i)
		}
	}
	if _, ok := rt.Route(0); ok {
		t.Error("route admitted with both replicas at the cap")
	}
	if got := rt.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	rt.Release(primary)
	if target, ok := rt.Route(0); !ok || target.Global != primary {
		t.Errorf("after release: target %+v ok=%v, want the primary disk %d again", target, ok, primary)
	}
}

// Striped serving end to end: one viewer's 90-minute viewing of a
// 2-wide striped title must be served as two chained streams — the
// second segment's stream starting on its own disk when playback
// reaches it — with the sizing guarantee holding and every router
// booking returned by the end.
func TestStripedServingChains(t *testing.T) {
	clock := engine.NewVirtualClock()
	cfg := testConfig(clock, catalog.Striped{Width: 2})
	starts := make(map[int]int) // global disk -> streams started
	cfg.Observer = func(s int) engine.Observer {
		return startCounter{starts: starts, off: s * 2}
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Title 1 lives on server 1 (disks 2 and 3 globally): the stripe
	// rotation must not confuse global and local indices.
	req := workload.Request{ID: 1, Arrival: 0, Video: 1, Viewing: si.Minutes(90)}
	var target Target
	var ok bool
	clock.Schedule(0, func() { target, ok = cl.Submit(req) })
	clock.Run(si.Hours(2))
	if !ok {
		t.Fatal("striped viewer rejected by an idle fleet")
	}
	if target.Server != 1 {
		t.Fatalf("title 1 routed to server %d, want 1", target.Server)
	}
	if starts[2] != 1 || starts[3] != 1 {
		t.Errorf("started %d streams on disk 2 and %d on disk 3, want one each (chained segments)",
			starts[2], starts[3])
	}
	for s := 0; s < cl.Servers(); s++ {
		sys := cl.System(s)
		for d := 0; d < sys.Disks(); d++ {
			if u := sys.Disk(d).Pool().Stats().Underruns; u != 0 {
				t.Errorf("server %d disk %d: %d underruns", s, d, u)
			}
		}
	}
	for g := 0; g < 4; g++ {
		if n := cl.Router().Committed(g); n != 0 {
			t.Errorf("disk %d still holds %d committed after all segments departed", g, n)
		}
	}
	st := cl.Router().Stats()
	if st.Routed != 1 {
		t.Errorf("routed = %d, want 1 (continuations are charges, not routes)", st.Routed)
	}
}

type startCounter struct {
	engine.NopObserver
	starts map[int]int
	off    int
}

func (c startCounter) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	c.starts[c.off+disk]++
}

// Composition validation: impossible fleets fail at construction.
func TestNewValidation(t *testing.T) {
	cfg := testConfig(engine.NewVirtualClock(), nil)
	cfg.Servers = 0
	if _, err := New(cfg); err == nil {
		t.Error("0 servers accepted")
	}
	cfg = testConfig(engine.NewVirtualClock(), nil)
	cfg.DisksPerServer = 0
	if _, err := New(cfg); err == nil {
		t.Error("0 disks per server accepted")
	}
}

// FuzzRouterAdmit model-checks the router's booking arithmetic under
// arbitrary Route/Release/chargeContinuation interleavings: the
// committed count per disk always matches a plain reference model,
// Route never books past the cap, and a rejection really means every
// replica of the title was saturated.
func FuzzRouterAdmit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 4, 1, 9, 2, 14, 0, 4, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			servers  = 3
			disksPer = 2
			titles   = 6
			cap      = 3
		)
		disks := servers * disksPer
		lib, err := catalog.New(catalog.Config{
			Titles: titles, Disks: disks, Spec: diskmodel.Barracuda9LP(),
			PopularityTheta: 0,
			Policy: catalog.Replicated{
				Base:      catalog.LeastLoaded{},
				HotTitles: 2, Copies: 3, ColdCopies: 1, GroupSize: disksPer,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := newRouter(lib, servers, disksPer, cap)
		model := make([]int, disks)
		routed, rejected := 0, 0
		for _, b := range data {
			arg := int(b >> 2)
			switch b % 3 {
			case 0: // Route a title
				video := arg % titles
				target, ok := r.Route(video)
				if ok {
					routed++
					reps := lib.Replicas(video)
					if target.Replica < 0 || target.Replica >= len(reps) {
						t.Fatalf("route(%d): replica index %d of %d", video, target.Replica, len(reps))
					}
					if g := reps[target.Replica].Segments[0].Disk; g != target.Global {
						t.Fatalf("route(%d): global %d but replica %d lives on %d", video, target.Global, target.Replica, g)
					}
					if model[target.Global] >= cap {
						t.Fatalf("route(%d) booked disk %d past the cap (%d committed)", video, target.Global, model[target.Global])
					}
					model[target.Global]++
				} else {
					rejected++
					for ri, rep := range lib.Replicas(video) {
						if g := rep.Segments[0].Disk; model[g] < cap {
							t.Fatalf("route(%d) rejected but replica %d's disk %d has %d/%d committed",
								video, ri, g, model[g], cap)
						}
					}
				}
			case 1: // Release a disk's booking (no-op when none held)
				g := arg % disks
				r.Release(g)
				if model[g] > 0 {
					model[g]--
				}
			case 2: // charge a striped continuation (may exceed the cap)
				g := arg % disks
				r.chargeContinuation(g)
				model[g]++
			}
			for g := 0; g < disks; g++ {
				if got := r.Committed(g); got != model[g] {
					t.Fatalf("disk %d: committed %d, model %d", g, got, model[g])
				}
			}
		}
		st := r.Stats()
		if int(st.Routed) != routed || int(st.Rejected) != rejected {
			t.Fatalf("stats routed/rejected = %d/%d, model %d/%d", st.Routed, st.Rejected, routed, rejected)
		}
	})
}

// The router's admission pair — replica lookup, CAS booking, tallies —
// runs on every connection goroutine and allocates nothing.
func TestRouteReleaseAllocFree(t *testing.T) {
	cl, err := New(testConfig(engine.NewVirtualClock(), catalog.Replicated{
		Base:      catalog.LeastLoaded{},
		HotTitles: 2, Copies: 2, ColdCopies: 2, GroupSize: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rt := cl.Router()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		target, ok := rt.Route(i % 4)
		if !ok {
			t.Fatal("router rejected with an idle fleet")
		}
		rt.Release(target.Global)
		i++
	})
	if allocs != 0 {
		t.Errorf("Route+Release allocates %v objects/op, want 0", allocs)
	}
}
