package engine

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// nextRecorder wraps a disk's standard scheduler, through the
// Config.NewScheduler plug point, and remembers Next's last answer.
type nextRecorder struct {
	Scheduler
	d         *Disk
	st        *Stream
	at, asked si.Seconds // the answer's start time, and the now it was given at
	calls     int
	reasked   int // calls made at the very instant a pending answer was due
	overQueue int // those of them that found requests waiting for admission
}

func (r *nextRecorder) Next(now si.Seconds) (*Stream, si.Seconds) {
	if r.st != nil && r.at > r.asked && now == r.at {
		r.reasked++
		if r.d.QueueLen() > 0 {
			r.overQueue++
		}
	}
	r.st, r.at = r.Scheduler.Next(now)
	r.asked = now
	r.calls++
	return r.st, r.at
}

// wakeAudit holds every fill to the scheduler's latest answer: the stream
// Next named, at the start time it gave — the asking instant when that
// was not in the future, else the wake's. A wake that served anything
// else, or at any other time, fails here whether it asked again or not.
type wakeAudit struct {
	NopObserver
	t      *testing.T
	recs   []*nextRecorder // by disk
	fills  int
	direct int // fills begun by a wake that did not ask again
	defers int
	stalls int
	downs  int
	shifts int
	starts si.Seconds // sum of every fill's start time: a digest of the schedule
}

func (a *wakeAudit) OnFill(disk int, st *Stream, now, _ si.Seconds, _ si.Bits, _ si.Seconds) {
	r := a.recs[disk]
	a.fills++
	a.starts += now
	if r.at > r.asked {
		a.direct++
	}
	if want := max(r.at, r.asked); st != r.st || now != want {
		id := -1
		if r.st != nil {
			id = r.st.id
		}
		a.t.Fatalf("disk %d filled stream %d at %v; Next (asked at %v) had answered stream %d at %v",
			disk, st.id, now, r.asked, id, want)
	}
}

func (a *wakeAudit) OnDefer(int, si.Seconds)                                               { a.defers++ }
func (a *wakeAudit) OnStall(int, si.Seconds)                                               { a.stalls++ }
func (a *wakeAudit) OnDowngrade(int, workload.Request, si.BitRate, si.BitRate, si.Seconds) { a.downs++ }
func (a *wakeAudit) OnRateSwitch(int, *Stream, si.BitRate, si.BitRate, si.Seconds)         { a.shifts++ }

func (a *wakeAudit) nextCalls() (calls, reasked int) {
	for _, r := range a.recs {
		calls, reasked = calls+r.calls, reasked+r.reasked
	}
	return
}

// wakeRig builds cfg's system on an audited VirtualClock (Disk.invariants
// and the remembered-wake invariant checked after every event) with every
// disk's scheduler recorded and a wakeAudit observing.
func wakeRig(t *testing.T, cfg Config, disks int) (*System, *auditClock, *wakeAudit) {
	t.Helper()
	clock := &auditClock{VirtualClock: NewVirtualClock()}
	audit := &wakeAudit{t: t, recs: make([]*nextRecorder, disks)}
	cfg.Clock, cfg.Observer = clock, audit
	cfg.NewScheduler = func(d *Disk) Scheduler {
		audit.recs[d.ID()] = &nextRecorder{Scheduler: NewScheduler(d), d: d}
		return audit.recs[d.ID()]
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	auditInvariants(t, clock, sys)
	return sys, clock, audit
}

// play offers the trace the way the simulator does — every arrival
// scheduled up front — and runs the day out.
func play(sys *System, clock *auditClock, tr workload.Trace, grace si.Seconds) {
	for _, req := range tr.Requests {
		req := req
		clock.VirtualClock.Schedule(req.Arrival, func() { sys.OnArrival(req); clock.audit() })
	}
	clock.Run(tr.Schedule.Horizon() + grace)
}

func paperLibrary(t *testing.T, ladder []si.BitRate) *catalog.Library {
	t.Helper()
	cfg := catalog.Config{Titles: 6, Disks: 1, Spec: diskmodel.Barracuda9LP(), PopularityTheta: 0.271}
	if ladder != nil {
		cfg.Video = func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Ladder = ladder
			return v
		}
	}
	lib, err := catalog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func paperConfig(lib *catalog.Library, kind sched.Kind, alloc Allocator) Config {
	return Config{
		Allocator: alloc,
		Method:    sched.NewMethod(kind),
		Spec:      diskmodel.Barracuda9LP(),
		CR:        si.Mbps(1.5),
		Alpha:     1,
		TLog:      si.Minutes(40),
		Library:   lib,
		Seed:      7,
	}
}

// Every fill that follows a lazy-start wake serves exactly the stream the
// scheduler named when the wake was set, at exactly the start time it
// gave — and most wakes get there without asking Next a second time.
func TestWakeServesTheSchedulersAnswer(t *testing.T) {
	ladder := []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}
	// The experiments' quick day: eight hours peaking at the third, at the
	// single-disk load that walks the whole n range.
	quickDay := func(lib *catalog.Library, load float64, seed int64) workload.Trace {
		horizon := si.Hours(8)
		tr := workload.Generate(workload.ZipfDay(load*2500/3, 0, horizon*3/8, horizon), lib, seed)
		for i, r := range tr.Requests {
			if v := lib.Video(r.Video); len(v.Ladder) > 0 {
				tr.Requests[i].Rate = v.Rate
			}
		}
		return tr
	}
	// fills and starts pin each day's schedule — every fill, and the sum of
	// their start times — to what the parent commit, which asked Next again
	// at every wake, produced on the same day: one fill at another instant
	// moves the sum.
	type outcome struct {
		downs, shifts bool
		fills         int
		starts        si.Seconds
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (Config, int, workload.Trace)
		want  outcome
	}{
		{name: "dynamic Round-Robin", want: outcome{fills: 122465, starts: 6.913845762872995e+08}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, nil)
			return paperConfig(lib, sched.RoundRobin, DynamicAllocator{}), 1, quickDay(lib, 1, 11)
		}},
		{name: "dynamic Sweep*", want: outcome{fills: 384177, starts: 5.238969234591915e+09}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, nil)
			return paperConfig(lib, sched.Sweep, DynamicAllocator{}), 1, quickDay(lib, 1, 12)
		}},
		{name: "dynamic GSS*", want: outcome{fills: 249862, starts: 1.4925891108529363e+09}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, nil)
			return paperConfig(lib, sched.GSS, DynamicAllocator{}), 1, quickDay(lib, 1, 13)
		}},
		{name: "static Round-Robin", want: outcome{fills: 11843, starts: 1.669129886357074e+08}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, nil)
			return paperConfig(lib, sched.RoundRobin, StaticAllocator{}), 1, quickDay(lib, 1, 14)
		}},
		// The naive scheme plans from the k_log estimate, the one input
		// that moves with time alone: its wakes must ask again whenever
		// the cache has gone stale, or fills land earlier than the parent's
		// (2,266 fewer of them over this day).
		{name: "naive Round-Robin", want: outcome{fills: 627833, starts: 9.782907211232805e+09}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, nil)
			return paperConfig(lib, sched.RoundRobin, NaiveAllocator{}), 1, quickDay(lib, 1, 15)
		}},
		{name: "laddered day with downgrades", want: outcome{downs: true, fills: 80337, starts: 4.879982252854749e+08}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, ladder)
			cfg := paperConfig(lib, sched.RoundRobin, DynamicAllocator{})
			cfg.Rates, cfg.Downgrade = ladder, true
			return cfg, 1, quickDay(lib, 2, 16)
		}},
		{name: "adaptive day", want: outcome{downs: true, shifts: true, fills: 78250, starts: 4.557003605330472e+08}, build: func(t *testing.T) (Config, int, workload.Trace) {
			lib := paperLibrary(t, ladder)
			cfg := paperConfig(lib, sched.RoundRobin, DynamicAllocator{})
			cfg.Rates, cfg.Downgrade, cfg.Adapt = ladder, true, &AdaptConfig{}
			return cfg, 1, quickDay(lib, 2, 17)
		}},
		// internal/scale's Quick shape on two disks: modern nearline
		// spindles ramped to ~700 streams each inside one half-hour slot,
		// under churn-safe admission and deadline-aware BubbleUp.
		{name: "depth-700 peak", want: outcome{fills: 183589, starts: 1.6481634246257344e+08}, build: func(t *testing.T) (Config, int, workload.Trace) {
			const disks = 2
			spec, cr := diskmodel.ModernNearline(), si.Mbps(1.5)
			lib, err := catalog.New(catalog.Config{
				Titles: 16 * disks, Disks: disks, Spec: spec, PopularityTheta: 0.271, Policy: catalog.LeastLoaded{},
			})
			if err != nil {
				t.Fatal(err)
			}
			p := core.Params{TR: spec.TransferRate, CR: cr, N: spec.MaxConcurrent(cr), Alpha: 1}
			cfg := Config{
				Allocator: DynamicAllocator{}, Method: sched.NewMethod(sched.RoundRobin),
				Spec: spec, CR: cr, Alpha: 1, TLog: si.Minutes(40), Library: lib, Seed: 7,
				ChurnSafeAdmission: true, DeadlineAwareBubbleUp: true,
				SizeTable: core.NewTable(p, sched.NewMethod(sched.RoundRobin).DLModel(spec)),
			}
			horizon := si.Minutes(30)
			return cfg, disks, workload.Generate(workload.ZipfDay(800*disks, 0.5, horizon*3/8, horizon), lib, 18)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, disks, tr := tc.build(t)
			sys, clock, audit := wakeRig(t, cfg, disks)
			if disks > 1 {
				// Disk.invariants walks every stream: at depth 700 keep the
				// O(1) part of the audit only.
				clock.audit = func() {
					for i := 0; i < disks; i++ {
						checkRememberedWake(t, sys.Disk(i))
					}
				}
			}
			play(sys, clock, tr, si.Minutes(5))
			calls, reasked := audit.nextCalls()
			t.Logf("%d requests: %d fills (start times sum to %v), %d begun by a wake unasked, %d Next calls (%d at a wake's instant), %d deferrals",
				len(tr.Requests), audit.fills, float64(audit.starts), audit.direct, calls, reasked, audit.defers)
			// Sweep* and GSS* sleep once per period or group, Round-Robin
			// before most fills; either way a day has thousands of wakes,
			// and one Next per fill plus the few that events re-ask.
			if audit.fills < 10000 || audit.direct < 5000 {
				t.Errorf("%d of %d fills were begun by a wake without a second Next; want a day of fills and thousands of them woken", audit.direct, audit.fills)
			}
			if calls > audit.fills+audit.fills/20 {
				t.Errorf("%d Next calls for %d fills: the wakes are asking again", calls, audit.fills)
			}
			if audit.fills != tc.want.fills || audit.starts != tc.want.starts {
				t.Errorf("%d fills whose start times sum to %v; the parent commit's schedule has %d summing to %v",
					audit.fills, float64(audit.starts), tc.want.fills, float64(tc.want.starts))
			}
			if tc.want.downs && audit.downs == 0 {
				t.Error("the laddered day never downgraded")
			}
			if tc.want.shifts && audit.shifts == 0 {
				t.Error("the adaptive day never switched a rate")
			}
		})
	}
}

// wakePending runs the clock until disk d sleeps on a lazy-start wake at
// least lead ahead, and returns the wake's instant.
func wakePending(t *testing.T, clock *auditClock, d *Disk, lead si.Seconds) si.Seconds {
	t.Helper()
	for step := 0; step < 100000; step++ {
		if d.woken != nil && d.wake.Active() && d.wokenAt-clock.Now() >= lead {
			return d.wokenAt
		}
		clock.Run(clock.Now() + si.Seconds(0.001))
	}
	t.Fatal("the disk never slept on a lazy-start wake")
	return 0
}

// Whatever lands between a wake's scheduling and its instant goes through
// dispatch, which cancels the wake, forgets its stream and asks Next
// afresh: an arrival, a departure, an Extend and a rate switch each leave
// no trace of the old answer, and the fills that follow obey the new one.
func TestWakeForgottenWhenTheDiskChanges(t *testing.T) {
	ladder := []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}
	events := []struct {
		name string
		land func(sys *System, d *Disk, now si.Seconds)
	}{
		{"arrival", func(sys *System, d *Disk, now si.Seconds) {
			sys.OnArrival(workload.Request{ID: 99, Arrival: now, Video: 1, Viewing: si.Minutes(3), Rate: ladder[0]})
		}},
		{"departure", func(sys *System, d *Disk, now si.Seconds) { d.Cancel(d.streams[len(d.streams)-1].id) }},
		{"Extend", func(sys *System, d *Disk, now si.Seconds) { d.Extend(d.woken.id, si.Minutes(30)) }},
		{"rate switch", func(sys *System, d *Disk, now si.Seconds) {
			d.switchRate(d.woken, sys.ctxs[len(sys.ctxs)-1], now)
			d.dispatch() // as adaptDown and adaptUp's callers do
		}},
	}
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			lib := paperLibrary(t, ladder)
			cfg := paperConfig(lib, sched.RoundRobin, DynamicAllocator{})
			cfg.Rates, cfg.Downgrade, cfg.Adapt = ladder, true, &AdaptConfig{}
			sys, clock, audit := wakeRig(t, cfg, 1)
			d := sys.Disk(0)
			for id := 0; id < 12; id++ {
				sys.OnArrival(workload.Request{ID: id, Arrival: clock.Now(), Video: id % 6, Viewing: si.Minutes(10), Rate: ladder[0]})
				clock.Run(clock.Now() + 2)
			}
			at := wakePending(t, clock, d, si.Seconds(0.004))
			old := d.wake
			calls, _ := audit.nextCalls()
			clock.Run(clock.Now() + (at-clock.Now())/2) // strictly inside the sleep
			ev.land(sys, d, clock.Now())
			clock.audit()
			if !old.ev.canceled && old.ev.gen == old.gen {
				t.Error("the pending wake survived the event")
			}
			if after, _ := audit.nextCalls(); after <= calls {
				t.Error("the event did not ask the scheduler again")
			}
			if r := audit.recs[0]; !d.busy && (d.woken != r.st || (d.woken != nil && d.wokenAt != r.at)) {
				t.Errorf("remembered (%v, %v) after the event, Next's latest answer is (%v, %v)", d.woken, d.wokenAt, r.st, r.at)
			}
			fills := audit.fills
			clock.Run(clock.Now() + si.Minutes(1))
			if audit.fills == fills {
				t.Error("no fill followed the event")
			}
		})
	}
}

// A wake that finds requests waiting for admission goes through dispatch,
// so each deferral it re-reports reaches the observer as it always did:
// the count below is the parent commit's on this very day.
func TestWakeWithQueuedAdmissionsStillDefers(t *testing.T) {
	lib := paperLibrary(t, nil)
	sys, clock, audit := wakeRig(t, paperConfig(lib, sched.RoundRobin, DynamicAllocator{}), 1)
	horizon := si.Hours(2)
	tr := workload.Generate(workload.ZipfDay(900, 0, horizon/2, horizon), lib, 5)
	play(sys, clock, tr, si.Minutes(5))
	queuedWakes := audit.recs[0].overQueue
	if queuedWakes == 0 {
		t.Fatal("no wake fired over a non-empty admission queue; the day is too light to mean anything")
	}
	const parentDefers = 254
	if audit.defers != parentDefers {
		t.Errorf("%d deferrals observed (%d wakes fell back over a queue), the parent commit reports %d", audit.defers, queuedWakes, parentDefers)
	}
}

// A refused budgeted fill retries on a plain dispatch timer: no stream is
// remembered for it, the retry asks the scheduler afresh, and the fill it
// finally starts is the one Next names then.
func TestStallRetryRemembersNothing(t *testing.T) {
	lib := paperLibrary(t, nil)
	sys, clock, audit := wakeRig(t, paperConfig(lib, sched.RoundRobin, StaticAllocator{}), 1)
	d := sys.Disk(0)
	// Room for two static buffers less a tenth: the second stream's first
	// fill is refused until the first stream has drained that tenth.
	d.pool = buffer.NewPool(2*sys.StaticSize() - sys.StaticSize()/10)
	sys.OnArrival(workload.Request{ID: 1, Video: 0, Viewing: si.Minutes(5)})
	clock.Run(1)
	sys.OnArrival(workload.Request{ID: 2, Arrival: 1, Video: 1, Viewing: si.Minutes(5)})
	for audit.stalls == 0 && clock.Now() < 10 {
		clock.Run(clock.Now() + si.Seconds(0.1))
	}
	if audit.stalls == 0 {
		t.Fatal("the budget never refused a fill")
	}
	if d.woken != nil || !d.wake.Active() {
		t.Fatalf("after a stall: remembered %v, retry timer active=%v; want nothing remembered and the retry pending", d.woken, d.wake.Active())
	}
	calls, _ := audit.nextCalls()
	stalls := audit.stalls
	clock.Run(si.Minutes(2))
	if after, _ := audit.nextCalls(); after-calls < audit.stalls-stalls {
		t.Errorf("%d retries made %d Next calls: a retry must ask afresh", audit.stalls-stalls, after-calls)
	}
	if len(d.streams) != 2 || !d.streams[1].started {
		t.Fatalf("the stalled stream never started (%d stalls)", audit.stalls)
	}
}
