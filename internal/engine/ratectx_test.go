package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// ladderSystem builds a one-disk Round-Robin system whose titles carry
// ladder (top rung = CR) and whose engine sizes every rung; a one-rung
// ladder is the paper's uniform regime. tweak, when non-nil, edits the
// config before New.
func ladderSystem(t *testing.T, alloc Allocator, ladder []si.BitRate, tweak func(*Config)) *System {
	t.Helper()
	lib, err := catalog.New(catalog.Config{
		Titles: 6, Disks: 1, Spec: diskmodel.Barracuda9LP(), PopularityTheta: 0.271,
		Video: func(id int) catalog.Video {
			v := catalog.MPEG1Video(id)
			v.Rate, v.Ladder = ladder[0], ladder
			return v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clock:     NewVirtualClock(),
		Allocator: alloc,
		Method:    sched.NewMethod(sched.RoundRobin),
		Spec:      diskmodel.Barracuda9LP(),
		CR:        ladder[0],
		Rates:     ladder,
		Alpha:     1,
		TLog:      si.Minutes(40),
		Library:   lib,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// retire undoes bookStream for the i'th stream in service.
func retire(d *Disk, i int) {
	st := d.streams[i]
	d.streams = append(d.streams[:i], d.streams[i+1:]...)
	d.serviceRate -= st.rate
	d.committedRate -= st.booked
	d.rateLive[st.ctx.idx]--
}

// Rates that repeat CR add no context: the uniform regime is the
// one-entry list, whatever the caller spelled.
func TestDuplicateRatesCollapseToOneContext(t *testing.T) {
	cr := si.Mbps(1.5)
	sys := ladderSystem(t, DynamicAllocator{}, []si.BitRate{cr}, func(c *Config) { c.Rates = []si.BitRate{cr, cr} })
	if len(sys.ctxs) != 1 || sys.ctxs[0].rate != cr {
		t.Fatalf("Rates {CR, CR} built %d contexts, want the base one alone", len(sys.ctxs))
	}
	if sys.Params() != sys.ctxs[0].params || sys.AdmitCap() != sys.Params().N {
		t.Errorf("base accessors disagree with the one context: %+v vs %+v, cap %d", sys.Params(), sys.ctxs[0].params, sys.AdmitCap())
	}
}

// event is one observer callback: its name, disk, stream or request ID,
// and numeric arguments — everything but the request's Rate field, the
// one thing the two days below spell differently.
type event struct {
	kind     string
	disk, id int
	v        [5]float64
}

// eventLog records every observer callback in order.
type eventLog struct{ events []event }

func (l *eventLog) add(kind string, disk, id int, v ...float64) {
	e := event{kind: kind, disk: disk, id: id}
	copy(e.v[:], v)
	l.events = append(l.events, e)
}
func (l *eventLog) OnAdmit(d int, st *Stream, now si.Seconds) {
	l.add("admit", d, st.id, float64(st.rate), float64(now))
}
func (l *eventLog) OnDefer(d int, now si.Seconds) { l.add("defer", d, 0, float64(now)) }
func (l *eventLog) OnReject(d int, req workload.Request, r RejectReason, now si.Seconds) {
	l.add("reject", d, req.ID, float64(r), float64(now))
}
func (l *eventLog) OnFill(d int, st *Stream, start, dur si.Seconds, fill si.Bits, dl si.Seconds) {
	l.add("fill", d, st.id, float64(start), float64(dur), float64(fill), float64(dl), float64(st.size))
}
func (l *eventLog) OnFillComplete(d int, st *Stream, fill si.Bits, now si.Seconds) {
	l.add("complete", d, st.id, float64(fill), float64(now))
}
func (l *eventLog) OnStart(d int, st *Stream, now si.Seconds) { l.add("start", d, st.id, float64(now)) }
func (l *eventLog) OnStall(d int, now si.Seconds)             { l.add("stall", d, 0, float64(now)) }
func (l *eventLog) OnEstimate(d, kc int, size si.Bits, now si.Seconds) {
	l.add("estimate", d, kc, float64(size), float64(now))
}
func (l *eventLog) OnEstimateResolved(d int, hit bool, now si.Seconds) {
	kind := "resolved-miss"
	if hit {
		kind = "resolved-hit"
	}
	l.add(kind, d, 0, float64(now))
}
func (l *eventLog) OnUnderrun(d, id int, now, gap si.Seconds) {
	l.add("underrun", d, id, float64(now), float64(gap))
}
func (l *eventLog) OnDowngrade(d int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	l.add("downgrade", d, req.ID, float64(from), float64(to), float64(now))
}
func (l *eventLog) OnRateSwitch(d int, st *Stream, from, to si.BitRate, now si.Seconds) {
	l.add("switch", d, st.id, float64(from), float64(to), float64(now))
}
func (l *eventLog) OnDepart(d int, st *Stream, now si.Seconds) {
	l.add("depart", d, st.id, float64(now))
}

// A day whose requests spell out Rate = CR is the same day as one that
// leaves Rate at zero: identical observer events, in order, under every
// allocator.
func TestExplicitBaseRateDayMatchesImplicit(t *testing.T) {
	cr := si.Mbps(1.5)
	for _, alloc := range []Allocator{StaticAllocator{}, DynamicAllocator{}, NaiveAllocator{}} {
		var logs [2]eventLog
		for i := range logs {
			sys := ladderSystem(t, alloc, []si.BitRate{cr}, func(c *Config) { c.Observer = &logs[i] })
			vc := sys.Clock().(*VirtualClock)
			day := workload.Generate(workload.ZipfDay(40, 0.5, si.Minutes(30), si.Hours(1)), sys.cfg.Library, 7)
			for _, req := range day.Requests {
				if i == 1 {
					req.Rate = cr
				}
				vc.Run(req.Arrival)
				sys.OnArrival(req)
			}
			vc.Run(si.Minutes(80))
		}
		a, b := logs[0].events, logs[1].events
		if len(a) < 1000 || len(a) != len(b) {
			t.Fatalf("%T: %d events with Rate = 0, %d with Rate = CR (want equal, and a day worth comparing)", alloc, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%T: event %d differs:\n  Rate = 0:  %+v\n  Rate = CR: %+v", alloc, j, a[j], b[j])
			}
		}
	}
}

// rejectLog records rejections.
type rejectLog struct {
	NopObserver
	reasons []RejectReason
}

func (l *rejectLog) OnReject(_ int, _ workload.Request, r RejectReason, _ si.Seconds) {
	l.reasons = append(l.reasons, r)
}

// An arrival at a rate nothing can size is turned away before it books
// anything — in the uniform regime (any rate but CR) and on a ladder (a
// rate between the rungs) alike.
func TestUnsizedRateRejected(t *testing.T) {
	for name, ladder := range ladders {
		t.Run(name, func(t *testing.T) {
			log := &rejectLog{}
			sys := ladderSystem(t, DynamicAllocator{}, ladder, func(c *Config) { c.Observer = log; c.Downgrade = len(ladder) > 1 })
			d := sys.Disk(0)
			sys.OnArrival(workload.Request{ID: 1, Video: 0, Viewing: si.Minutes(5), Rate: si.Mbps(0.75)})
			if len(log.reasons) != 1 || log.reasons[0] != RejectRate {
				t.Fatalf("rejections %v, want exactly one RejectRate", log.reasons)
			}
			if d.Committed() != 0 || d.CommittedRate() != 0 {
				t.Errorf("rejected arrival left %d committed, %v booked", d.Committed(), d.CommittedRate())
			}
			for id, r := range append([]si.BitRate{0}, ladder...) {
				sys.OnArrival(workload.Request{ID: 10 + id, Video: 0, Viewing: si.Minutes(5), Rate: r})
			}
			if len(log.reasons) != 1 || d.Committed() != len(ladder)+1 {
				t.Errorf("sized rates: rejections %v, %d committed, want none more and %d", log.reasons, d.Committed(), len(ladder)+1)
			}
		})
	}
}

// Bug at the parent commit: the ladder branch of DynamicAllocator.PlanSize
// never read the ramp-raised load, so RampAwarePlanning did nothing with
// Rates set. With the book promising a window above the current load, the
// flag must now raise the plan on a ladder too — to each context's own N
// at most.
func TestRampAwarePlanningReachesLadder(t *testing.T) {
	ladder := []si.BitRate{si.Mbps(1.5), si.Mbps(1.0)}
	plan := func(ramp bool, nk int) (si.Bits, *Disk) {
		sys := ladderSystem(t, DynamicAllocator{}, ladder, func(c *Config) { c.RampAwarePlanning = ramp })
		d := sys.Disk(0)
		for i := 0; i < 6; i++ {
			bookStream(d, &Stream{id: i}, sys.ctxs[i%2])
		}
		n := len(d.streams)
		d.book.Set(0, core.Allocation{N: n, K: nk - n})
		if d.book.MinNK() <= n {
			t.Fatalf("book promises %d, want above the load %d", d.book.MinNK(), n)
		}
		return DynamicAllocator{}.PlanSize(d, n), d
	}
	off, _ := plan(false, 30)
	on, _ := plan(true, 30)
	if on <= off {
		t.Errorf("PlanSize with RampAwarePlanning %v, without %v: the flag must raise the plan on a ladder", on, off)
	}
	// A window far above either rung's capacity plans at full load, each
	// context clamped to its own N rather than the base rate's.
	full, d := plan(true, 1<<20)
	var want si.Bits
	for _, c := range d.sys.ctxs {
		want = maxBits(want, c.table.Size(c.params.N, 0))
	}
	if full != want {
		t.Errorf("PlanSize under an unbounded window %v, want the widest full-load size %v", full, want)
	}
}

// effLoad is exact on a uniform disk — the stream count, whatever float
// residue ten thousand += / -= of a non-integral rate leave in
// serviceRate — and on a mixed disk equals its written formula; the floor
// raises it, never lowers it, and never past the context's N.
func TestEffLoadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	t.Run("uniform", func(t *testing.T) {
		sys := ladderSystem(t, DynamicAllocator{}, []si.BitRate{si.BitRate(1.5e6 / 7)}, nil)
		d, base := sys.Disk(0), sys.ctxs[0]
		for step := 0; step < 10000; step++ {
			if n := len(d.streams); n > 0 && (n == base.params.N || rng.Intn(2) == 0) {
				retire(d, rng.Intn(n))
			} else {
				bookStream(d, &Stream{id: step}, base)
			}
			want := len(d.streams)
			if want < 1 {
				want = 1
			}
			if got := d.effLoad(base, 0); got != want {
				t.Fatalf("step %d: effLoad %d with %d streams in service (serviceRate %v)", step, got, len(d.streams), d.serviceRate)
			}
		}
	})
	t.Run("mixed", func(t *testing.T) {
		sys := ladderSystem(t, DynamicAllocator{}, []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}, nil)
		d := sys.Disk(0)
		mixed := 0
		for step := 0; step < 10000; step++ {
			if n := len(d.streams); n > 0 && (n >= 40 || rng.Intn(2) == 0) {
				retire(d, rng.Intn(n))
			} else {
				bookStream(d, &Stream{id: step}, sys.ctxs[rng.Intn(3)])
			}
			for _, c := range sys.ctxs {
				got := d.effLoad(c, 0)
				if d.rateLive[c.idx] != len(d.streams) {
					mixed++
					want := int(math.Ceil(float64(d.serviceRate) / float64(c.rate)))
					if want < len(d.streams) {
						want = len(d.streams)
					}
					if want > c.params.N {
						want = c.params.N
					}
					if got != want {
						t.Fatalf("step %d rate %v: effLoad %d, formula %d", step, c.rate, got, want)
					}
				}
				floor := rng.Intn(2 * c.params.N)
				raised := d.effLoad(c, floor)
				want := got
				if floor > want {
					want = floor
				}
				if want > c.params.N {
					want = c.params.N
				}
				if raised != want {
					t.Fatalf("step %d rate %v: effLoad %d under floor %d, want %d (unfloored %d, N %d)", step, c.rate, raised, floor, want, got, c.params.N)
				}
			}
		}
		if mixed < 10000 {
			t.Fatalf("only %d mixed-population checks ran", mixed)
		}
	})
}
