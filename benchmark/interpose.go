package main

import (
	"repro/internal/engine"
	"repro/internal/si"
	"repro/internal/workload"
)

// The interposers wrap the engine's existing plug points — Config.Clock,
// .Allocator, .NewScheduler, .Observer — so a traced run times every
// call across a layer boundary from outside, without touching the
// engine. Each forwards unchanged; TestInterposersTransparent holds them
// to producing the identical Result.

// tracedClock wraps the simulation's one VirtualClock. Every callback it
// schedules runs inside a layerCallback span, so time inside
// VirtualClock.Run splits into the clock's own (pops, cancelled events)
// and the callbacks'.
type tracedClock struct {
	inner *engine.VirtualClock
	t     *tracer
	free  []*tracedCall
	fired *int64 // callbacks run
}

// tracedCall carries one scheduled callback through the inner clock.
// Calls are recycled when they fire; a cancelled one is left to the GC.
type tracedCall struct {
	c   *tracedClock
	fn  func()
	afn func(any)
	arg any
}

func (c *tracedClock) DiskClock(int) engine.Clock { return c }
func (c *tracedClock) Now() si.Seconds            { return c.inner.Now() }

func (c *tracedClock) wrap(fn func(), afn func(any), arg any) *tracedCall {
	var w *tracedCall
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = &tracedCall{c: c}
	}
	w.fn, w.afn, w.arg = fn, afn, arg
	return w
}

func runTracedCall(a any) {
	w := a.(*tracedCall)
	c, fn, afn, arg := w.c, w.fn, w.afn, w.arg
	w.fn, w.afn, w.arg = nil, nil, nil
	c.free = append(c.free, w)
	*c.fired++
	c.t.begin(layerCallback, 0)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	c.t.end()
}

func (c *tracedClock) schedule(at si.Seconds, fn func(), afn func(any), arg any) engine.Timer {
	c.t.begin(layerSchedule, 0)
	tm := c.inner.ScheduleFunc(at, runTracedCall, c.wrap(fn, afn, arg))
	c.t.end()
	return tm
}

func (c *tracedClock) Schedule(at si.Seconds, fn func()) engine.Timer {
	return c.schedule(at, fn, nil, nil)
}
func (c *tracedClock) After(d si.Seconds, fn func()) engine.Timer {
	return c.schedule(c.inner.Now()+d, fn, nil, nil)
}
func (c *tracedClock) ScheduleFunc(at si.Seconds, fn func(any), arg any) engine.Timer {
	return c.schedule(at, nil, fn, arg)
}
func (c *tracedClock) AfterFunc(d si.Seconds, fn func(any), arg any) engine.Timer {
	return c.schedule(c.inner.Now()+d, nil, fn, arg)
}

// run drives the inner clock inside the root span.
func (c *tracedClock) run(until si.Seconds) {
	c.t.begin(layerRun, 0)
	c.inner.Run(until)
	c.t.end()
}

type tracedAllocator struct {
	inner  engine.Allocator
	t      *tracer
	denied *int64
}

func (a *tracedAllocator) Size(d *engine.Disk, st *engine.Stream, n int) si.Bits {
	a.t.begin(layerAllocSize, st.ID())
	v := a.inner.Size(d, st, n)
	a.t.end()
	return v
}

func (a *tracedAllocator) PlanSize(d *engine.Disk, n int) si.Bits {
	a.t.begin(layerAllocPlan, 0)
	v := a.inner.PlanSize(d, n)
	a.t.end()
	return v
}

func (a *tracedAllocator) Admit(d *engine.Disk, n int) bool {
	a.t.begin(layerAllocAdmit, 0)
	ok := a.inner.Admit(d, n)
	a.t.end()
	if !ok {
		*a.denied++
	}
	return ok
}

// tracedScheduler wraps a disk's standard scheduler. CanAdmit and
// OnServiced are a field read and an index bump in every method, cheaper
// than the two clock reads a span costs, so they pass through untimed.
type tracedScheduler struct {
	inner engine.Scheduler
	t     *tracer
	nils  *int64 // Next calls that yielded nothing to service
}

func (s *tracedScheduler) Admit(st *engine.Stream) {
	s.t.begin(layerSchedAdmit, st.ID())
	s.inner.Admit(st)
	s.t.end()
}

func (s *tracedScheduler) Remove(st *engine.Stream) {
	s.t.begin(layerSchedAdmit, st.ID())
	s.inner.Remove(st)
	s.t.end()
}

func (s *tracedScheduler) CanAdmit() bool               { return s.inner.CanAdmit() }
func (s *tracedScheduler) OnServiced(st *engine.Stream) { s.inner.OnServiced(st) }

func (s *tracedScheduler) Next(now si.Seconds) (*engine.Stream, si.Seconds) {
	s.t.begin(layerSchedNext, 0)
	st, at := s.inner.Next(now)
	s.t.end()
	if st == nil {
		*s.nils++
	}
	return st, at
}

// observerCounts tallies every Observer callback; a traced run must
// reproduce them exactly from one run to the next.
type observerCounts struct {
	Admits, Defers, Rejects, Fills, FillCompletes, Starts, Stalls int64
	Estimates, EstimateHits, Underruns, Downgrades, RateSwitches  int64
	Departs                                                       int64
}

// tracedObserver counts and times the observer fan-out in front of the
// replay's own result collector.
type tracedObserver struct {
	inner engine.Observer
	t     *tracer
	n     *observerCounts
}

func (o *tracedObserver) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	o.n.Admits++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnAdmit(disk, st, now)
	o.t.end()
}

func (o *tracedObserver) OnDefer(disk int, now si.Seconds) {
	o.n.Defers++
	o.t.begin(layerObserver, 0)
	o.inner.OnDefer(disk, now)
	o.t.end()
}

func (o *tracedObserver) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	o.n.Rejects++
	o.t.begin(layerObserver, req.ID)
	o.inner.OnReject(disk, req, reason, now)
	o.t.end()
}

func (o *tracedObserver) OnFill(disk int, st *engine.Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds) {
	o.n.Fills++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnFill(disk, st, start, dur, fill, deadline)
	o.t.end()
}

func (o *tracedObserver) OnFillComplete(disk int, st *engine.Stream, fill si.Bits, now si.Seconds) {
	o.n.FillCompletes++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnFillComplete(disk, st, fill, now)
	o.t.end()
}

func (o *tracedObserver) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	o.n.Starts++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnStart(disk, st, now)
	o.t.end()
}

func (o *tracedObserver) OnStall(disk int, now si.Seconds) {
	o.n.Stalls++
	o.t.begin(layerObserver, 0)
	o.inner.OnStall(disk, now)
	o.t.end()
}

func (o *tracedObserver) OnEstimate(disk int, kc int, size si.Bits, now si.Seconds) {
	o.n.Estimates++
	o.t.begin(layerObserver, 0)
	o.inner.OnEstimate(disk, kc, size, now)
	o.t.end()
}

func (o *tracedObserver) OnEstimateResolved(disk int, hit bool, now si.Seconds) {
	if hit {
		o.n.EstimateHits++
	}
	o.t.begin(layerObserver, 0)
	o.inner.OnEstimateResolved(disk, hit, now)
	o.t.end()
}

func (o *tracedObserver) OnUnderrun(disk int, id int, now, gap si.Seconds) {
	o.n.Underruns++
	o.t.begin(layerObserver, id)
	o.inner.OnUnderrun(disk, id, now, gap)
	o.t.end()
}

func (o *tracedObserver) OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	o.n.Downgrades++
	o.t.begin(layerObserver, req.ID)
	o.inner.OnDowngrade(disk, req, from, to, now)
	o.t.end()
}

func (o *tracedObserver) OnRateSwitch(disk int, st *engine.Stream, from, to si.BitRate, now si.Seconds) {
	o.n.RateSwitches++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnRateSwitch(disk, st, from, to, now)
	o.t.end()
}

func (o *tracedObserver) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	o.n.Departs++
	o.t.begin(layerObserver, st.ID())
	o.inner.OnDepart(disk, st, now)
	o.t.end()
}
