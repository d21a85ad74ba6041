package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
)

// harness builds a disk wired into a tiny system without running the
// clock, so scheduler mechanics can be driven by hand.
func harness(t *testing.T, kind sched.Kind, alloc Allocator) *Disk {
	t.Helper()
	lib, err := catalog.New(catalog.Config{
		Titles: 6, Disks: 1, Spec: diskmodel.Barracuda9LP(), PopularityTheta: 0.271,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		Clock:     NewVirtualClock(),
		Allocator: alloc,
		Method:    sched.NewMethod(kind),
		Spec:      diskmodel.Barracuda9LP(),
		CR:        si.Mbps(1.5),
		Alpha:     1,
		TLog:      si.Minutes(40),
		Library:   lib,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Disk(0)
}

// bookStream puts st in service on d at c's rate — the stream's context,
// rates and slot, the disk's bandwidth books and live-rate counter — as
// real admission would. Every hand-built stream that reaches the
// allocator goes through it.
func bookStream(d *Disk, st *Stream, c *rateCtx) {
	st.disk, st.ctx, st.rate, st.want, st.booked = d, c, c.rate, c.rate, c.rate
	st.slot, st.active = len(d.streams), true
	d.streams = append(d.streams, st)
	d.serviceRate += c.rate
	d.committedRate += c.rate
	d.rateLive[c.idx]++
}

// addStream admits a synthetic stream at the base rate directly,
// maintaining the same per-disk indexes (fresh FIFO, pool, scheduler)
// real admission would.
func addStream(t *testing.T, d *Disk, id int, viewing si.Seconds) *Stream {
	t.Helper()
	d.admitSeq++
	c := d.sys.ctxs[0]
	st := &Stream{
		id:       id,
		place:    d.sys.cfg.Library.Placement(id % d.sys.cfg.Library.Len()),
		required: c.rate.DataIn(viewing),
		deadline: d.now(),
		admitSeq: d.admitSeq,
	}
	bookStream(d, st, c)
	d.fresh = append(d.fresh, st)
	d.pool.Attach(st.id, c.rate, d.now())
	d.sched.Admit(st)
	return st
}

// markStarted flips a synthetic stream to started with the given cached
// deadline and re-indexes it, as completeService would.
func markStarted(d *Disk, st *Stream, deadline si.Seconds) {
	st.started = true
	st.deadline = deadline
	d.dlFix(st)
}

func TestRRSchedulerPrefersFreshWhenIdle(t *testing.T) {
	d := harness(t, sched.RoundRobin, DynamicAllocator{})
	old := addStream(t, d, 1, si.Minutes(30))
	// Give the old stream a comfortable buffer.
	d.pool.BeginFill(old.id, si.Megabits(15), 0)
	d.pool.CompleteFill(old.id, 0)
	markStarted(d, old, d.pool.EmptyAt(old.id))
	fresh := addStream(t, d, 2, si.Minutes(30))
	st, start := d.sched.Next(0)
	if st != fresh {
		t.Fatalf("Next = stream %d, want the fresh stream", st.id)
	}
	if start != 0 {
		t.Errorf("fresh service should start now, got %v", start)
	}
}

func TestRRSchedulerUrgentRefillBeatsFresh(t *testing.T) {
	d := harness(t, sched.RoundRobin, DynamicAllocator{})
	old := addStream(t, d, 1, si.Minutes(30))
	// A nearly empty buffer: due within the cushion window.
	d.pool.BeginFill(old.id, si.Megabits(0.075), 0) // 0.05 s of content
	d.pool.CompleteFill(old.id, 0)
	markStarted(d, old, d.pool.EmptyAt(old.id))
	addStream(t, d, 2, si.Minutes(30))
	st, _ := d.sched.Next(0)
	if st != old {
		t.Fatalf("Next = stream %d, want the starving started stream", st.id)
	}
}

func TestRRSchedulerLazyWakeTime(t *testing.T) {
	d := harness(t, sched.RoundRobin, StaticAllocator{})
	st := addStream(t, d, 1, si.Minutes(60))
	d.pool.BeginFill(st.id, d.sys.StaticSize(), 0)
	d.pool.CompleteFill(st.id, 0)
	markStarted(d, st, d.pool.EmptyAt(st.id))
	next, start := d.sched.Next(0)
	if next != st {
		t.Fatal("want the lone stream")
	}
	if start <= 0 {
		t.Fatalf("lone full buffer should be scheduled lazily, got start %v", start)
	}
	if start >= st.deadline {
		t.Fatalf("start %v must precede the deadline %v", start, st.deadline)
	}
}

func TestSweepSchedulerFormsCylinderOrder(t *testing.T) {
	d := harness(t, sched.Sweep, StaticAllocator{})
	// Three streams at different disk positions: stream ids map to titles
	// placed contiguously, so higher id = higher cylinder.
	c := addStream(t, d, 2, si.Minutes(60))
	a := addStream(t, d, 0, si.Minutes(60))
	b := addStream(t, d, 1, si.Minutes(60))
	first, start := d.sched.Next(0)
	if first != a {
		t.Fatalf("first serviced = stream %d, want lowest cylinder (0)", first.id)
	}
	if start != 0 {
		t.Errorf("fresh members should start the period now, got %v", start)
	}
	sp := d.sched.(*sweepScheduler)
	order := []int{sp.period[0].id, sp.period[1].id, sp.period[2].id}
	if order[0] != a.id || order[1] != b.id || order[2] != c.id {
		t.Errorf("period order = %v, want [0 1 2]", order)
	}
}

func TestSweepSchedulerAdmissionOnlyBetweenPeriods(t *testing.T) {
	d := harness(t, sched.Sweep, StaticAllocator{})
	addStream(t, d, 1, si.Minutes(60))
	if !d.sched.CanAdmit() {
		t.Fatal("no period formed yet: admission allowed")
	}
	st, _ := d.sched.Next(0) // forms the period
	if st == nil {
		t.Fatal("expected work")
	}
	if d.sched.CanAdmit() {
		t.Error("mid-period admission should be blocked")
	}
	d.sched.OnServiced(st)
	if !d.sched.CanAdmit() {
		t.Error("period exhausted: admission allowed again")
	}
}

func TestGSSSchedulerGroupAssignment(t *testing.T) {
	d := harness(t, sched.GSS, StaticAllocator{})
	var members []*Stream
	for i := 0; i < 10; i++ {
		members = append(members, addStream(t, d, i, si.Minutes(60)))
	}
	gp := d.sched.(*gssScheduler)
	if len(gp.groups) != 2 {
		t.Fatalf("10 streams with g=8: want 2 groups, got %d", len(gp.groups))
	}
	if len(gp.groups[0]) != 8 || len(gp.groups[1]) != 2 {
		t.Errorf("group sizes = %d, %d; want 8, 2", len(gp.groups[0]), len(gp.groups[1]))
	}
	// Departure shrinks a group; a singleton group vanishes with its
	// last member.
	d.removeStream(members[9])
	d.removeStream(members[8])
	if len(gp.groups) != 1 {
		t.Errorf("want 1 group after emptying the second, got %d", len(gp.groups))
	}
}

func TestGSSSchedulerSweepsWholeGroup(t *testing.T) {
	d := harness(t, sched.GSS, StaticAllocator{})
	for i := 0; i < 10; i++ {
		addStream(t, d, i, si.Minutes(60))
	}
	st, _ := d.sched.Next(0)
	if st == nil {
		t.Fatal("expected work")
	}
	gp := d.sched.(*gssScheduler)
	if len(gp.sweep) != 8 {
		t.Fatalf("sweep covers %d members, want the full group of 8", len(gp.sweep))
	}
	// Service the whole sweep; the rotation then reaches group 2.
	for i := 0; i < 8; i++ {
		st, _ := d.sched.Next(0)
		if st == nil {
			t.Fatal("sweep ended early")
		}
		st.delivered = st.required // mark done so Next() moves on
		d.sched.OnServiced(st)
	}
	st2, _ := d.sched.Next(0)
	if st2 == nil {
		t.Fatal("second group never serviced")
	}
	if len(gp.sweep) != 2 {
		t.Errorf("second sweep covers %d, want 2", len(gp.sweep))
	}
}

func TestSchedulerSkipsFinishedStreams(t *testing.T) {
	for _, kind := range sched.Kinds {
		d := harness(t, kind, StaticAllocator{})
		st := addStream(t, d, 1, si.Minutes(60))
		st.delivered = st.required
		if got, _ := d.sched.Next(0); got != nil {
			t.Errorf("%v: finished stream still scheduled", kind)
		}
	}
}

func TestRoomAtFloorsRefills(t *testing.T) {
	d := harness(t, sched.RoundRobin, DynamicAllocator{})
	st := addStream(t, d, 1, si.Minutes(60))
	// A full, freshly sized buffer must not be refilled immediately.
	st.size = si.Megabits(1.5) // 1 s of content
	d.pool.BeginFill(st.id, st.size, 0)
	d.pool.CompleteFill(st.id, 0)
	markStarted(d, st, d.pool.EmptyAt(st.id))
	if got := d.roomAt(st); got <= 0 {
		t.Errorf("roomAt = %v, want a positive wait for a full buffer", got)
	}
	if got := d.roomAt(st); got >= st.deadline {
		t.Errorf("roomAt %v must precede the deadline %v", got, st.deadline)
	}
	// Fresh streams have no floor.
	fresh := addStream(t, d, 2, si.Minutes(60))
	if got := d.roomAt(fresh); got != 0 {
		t.Errorf("fresh roomAt = %v, want 0", got)
	}
}
