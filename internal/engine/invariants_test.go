package engine

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// auditClock is a VirtualClock domain that calls audit after every
// callback it fires, so a test can check state between any two events
// rather than only where it stops the clock.
type auditClock struct {
	*VirtualClock
	audit func()
}

func (c *auditClock) DiskClock(int) Clock { return c }

func (c *auditClock) Schedule(at si.Seconds, fn func()) Timer {
	return c.VirtualClock.Schedule(at, func() { fn(); c.audit() })
}

func (c *auditClock) After(delay si.Seconds, fn func()) Timer {
	return c.Schedule(c.Now()+delay, fn)
}

func (c *auditClock) ScheduleFunc(at si.Seconds, fn func(arg any), arg any) Timer {
	return c.VirtualClock.Schedule(at, func() { fn(arg); c.audit() })
}

func (c *auditClock) AfterFunc(delay si.Seconds, fn func(arg any), arg any) Timer {
	return c.ScheduleFunc(c.Now()+delay, fn, arg)
}

// auditInvariants points clock's audit at every disk of sys and returns
// a counter of the audits run. A violation fails the test at the event
// that caused it. Beside Disk.invariants it holds the remembered wake to
// its contract: a stream is remembered only while its wake is pending,
// and only while the disk still owns it.
func auditInvariants(t *testing.T, clock *auditClock, sys *System) *int {
	audits := new(int)
	clock.audit = func() {
		*audits++
		for i := 0; i < sys.Disks(); i++ {
			if err := sys.Disk(i).invariants(); err != nil {
				t.Fatalf("t=%v: %v", clock.Now(), err)
			}
			checkRememberedWake(t, sys.Disk(i))
		}
	}
	return audits
}

// checkRememberedWake fails the test if d remembers a stream for a wake
// that is not pending, or one the disk no longer owns.
func checkRememberedWake(t *testing.T, d *Disk) {
	if st := d.woken; st != nil && (!d.wake.Active() || d.busy || !st.active) {
		t.Fatalf("t=%v: disk %d remembers stream %d (active=%v) with wake pending=%v busy=%v",
			d.now(), d.id, st.id, st.active, d.wake.Active(), d.busy)
	}
}

// highWaterShadow re-derives a disk pool's high-water mark from outside:
// OnFill fires at the instant of the pool's own sample with nothing moved
// in between, so the running maximum of Usage there is the mark the pool
// must report — bit for bit, however many of its walks it skipped.
type highWaterShadow struct {
	NopObserver
	sys  *System
	high si.Bits
}

func (h *highWaterShadow) OnFill(disk int, _ *Stream, now, _ si.Seconds, _ si.Bits, _ si.Seconds) {
	if u := h.sys.Disk(disk).Pool().Usage(now); u > h.high {
		h.high = u
	}
}

// agree fails the test unless disk 0's pool reports the shadowed mark.
func (h *highWaterShadow) agree(t *testing.T) {
	t.Helper()
	if got := h.sys.Disk(0).Pool().Stats().HighWater; got != h.high || got == 0 {
		t.Errorf("pool high water %v, maximum of Usage over every fill %v (must be equal and nonzero)", got, h.high)
	}
}

// switchCounter counts mid-stream rate switches.
type switchCounter struct {
	NopObserver
	n int
}

func (c *switchCounter) OnRateSwitch(int, *Stream, si.BitRate, si.BitRate, si.Seconds) { c.n++ }

// Disk.invariants must hold after every clock event and every driver
// call under each scheduling method, through admission, deferral,
// refill rotation, cancellation, extension and departure — and, on a
// bitrate ladder, through downgrades and mid-stream switches that re-plan
// a stream's demand and deadline — with the deadline index holding
// exactly the started streams still fetching, its block summaries (when
// held) bounding their members, and the pool's high-water mark equal to
// the one shadowed from outside at every fill.
func TestInvariantsHoldAfterEveryEvent(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	ladder := []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}
	cases := []struct {
		name  string
		kind  sched.Kind
		adapt bool
	}{
		{"Round-Robin", sched.RoundRobin, false},
		{"Sweep*", sched.Sweep, false},
		{"GSS*", sched.GSS, false},
		{"Round-Robin adaptive ladder", sched.RoundRobin, true},
	}
	for seed, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			libCfg := catalog.Config{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271}
			clock := &auditClock{VirtualClock: NewVirtualClock()}
			switches := &switchCounter{}
			cfg := Config{
				Clock:     clock,
				Allocator: DynamicAllocator{},
				Method:    sched.NewMethod(tc.kind),
				Spec:      spec,
				CR:        ladder[0],
				Alpha:     1,
				TLog:      si.Minutes(40),
				Observer:  switches,
			}
			if tc.adapt {
				libCfg.Video = func(id int) catalog.Video {
					v := catalog.MPEG1Video(id)
					v.Ladder = ladder
					return v
				}
				cfg.Rates, cfg.Downgrade, cfg.Adapt = ladder, true, &AdaptConfig{}
			}
			lib, err := catalog.New(libCfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Library = lib
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			audits := auditInvariants(t, clock, sys)
			shadow := &highWaterShadow{sys: sys}
			sys.AttachObserver(shadow)
			d := sys.Disk(0)
			rng := rand.New(rand.NewSource(int64(seed) + 1))
			var now si.Seconds
			peak := 0
			for id := 0; id < 150; id++ {
				now += si.Seconds(rng.Float64() * 3)
				clock.Run(now)
				req := workload.Request{
					ID: id, Arrival: now, Video: rng.Intn(6), Disk: 0,
					Viewing: si.Seconds(20 + rng.Intn(200)),
				}
				if tc.adapt {
					req.Rate = ladder[rng.Intn(len(ladder))]
				}
				sys.OnArrival(req)
				clock.audit()
				switch victim := rng.Intn(id + 1); rng.Intn(8) {
				case 0:
					d.Cancel(victim)
					clock.audit()
				case 1:
					d.Extend(victim, si.Seconds(100+rng.Intn(300)))
					clock.audit()
				case 2:
					// Organic switches need sustained distress; force one
					// the way adaptDown/adaptUp apply theirs.
					if !tc.adapt || len(d.streams) == 0 {
						break
					}
					if st := d.streams[victim%len(d.streams)]; st.started && st != d.current {
						d.switchRate(st, sys.ctxs[rng.Intn(len(sys.ctxs))], now)
						d.dispatch()
						clock.audit()
					}
				}
				if n := d.InService(); n > peak {
					peak = n
				}
			}
			clock.Run(now + si.Hours(1))
			if d.InService() != 0 || d.deadlines.size() != 0 {
				t.Errorf("after the drain: %d in service, %d indexed", d.InService(), d.deadlines.size())
			}
			shadow.agree(t)
			if peak < 20 || *audits < 1000 {
				t.Errorf("trace too shallow to mean anything: peak depth %d, %d audits", peak, *audits)
			}
			if tc.adapt && switches.n == 0 {
				t.Error("the adaptive trace never switched a rate")
			}
		})
	}
}
