package engine

import (
	"repro/internal/si"
	"repro/internal/workload"
)

// RejectReason classifies why a request was turned away at arrival.
type RejectReason int

const (
	// RejectCapacity means the disk's committed load had reached N.
	RejectCapacity RejectReason = iota
	// RejectMemory means the admission Gate (e.g. the capacity
	// experiments' shared-memory governor) refused the reservation.
	RejectMemory
	// RejectRate means the request asked for a consumption rate the
	// system has no sizing context for (neither CR nor in Config.Rates),
	// so no buffer could be sized for it.
	RejectRate
)

// Observer receives the engine's instrumentation callbacks. Both drivers —
// the simulator collecting a Result and the live server relaying fills to
// TCP viewers — observe the runtime through this one interface, so their
// measurements are definitionally consistent.
//
// Callbacks fire synchronously inside the engine (under the engine lock
// when running on a WallClock) and must not block or re-enter the engine.
// Embed NopObserver to implement only the callbacks you need.
type Observer interface {
	// OnAdmit fires when a request moves from the deferral queue into
	// service (Fig. 5's admission).
	OnAdmit(disk int, st *Stream, now si.Seconds)
	// OnDefer fires when the dynamic scheme's enforcement blocks an
	// admission attempt (one call per blocked attempt, as the paper
	// counts deferrals).
	OnDefer(disk int, now si.Seconds)
	// OnReject fires when an arrival is turned away outright.
	OnReject(disk int, req workload.Request, reason RejectReason, now si.Seconds)
	// OnFill fires when a disk read starts: the service begins at start,
	// occupies the disk for dur, and lands fill bits; deadline is when the
	// stream's buffer runs dry without it.
	OnFill(disk int, st *Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds)
	// OnFillComplete fires when the read lands and the data becomes
	// buffer level the viewer can consume.
	OnFillComplete(disk int, st *Stream, fill si.Bits, now si.Seconds)
	// OnStart fires at a stream's first completed fill — the moment that
	// ends its initial latency.
	OnStart(disk int, st *Stream, now si.Seconds)
	// OnStall fires when a fill could not reserve memory under a hard
	// pool budget and the service will retry.
	OnStall(disk int, now si.Seconds)
	// OnEstimate fires when an allocation records a prediction: kc
	// estimated additional requests over the usage period of a buffer of
	// the given size (Fig. 5 Step 4).
	OnEstimate(disk int, kc int, size si.Bits, now si.Seconds)
	// OnEstimateResolved fires when a recorded prediction's usage period
	// closes: hit reports whether kc covered the actual arrivals
	// (Section 5.1's "successful estimation").
	OnEstimateResolved(disk int, hit bool, now si.Seconds)
	// OnUnderrun fires when a started buffer runs dry before its refill —
	// the failure the sizing theorems exist to prevent. id is the starved
	// stream's request ID; gap is how long the viewer starved.
	OnUnderrun(disk int, id int, now, gap si.Seconds)
	// OnDowngrade fires when downgrading admission steps an arrival down
	// its title's bitrate ladder: the requested rung from did not fit the
	// disk's predicted capacity, and the stream will be served at to.
	OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds)
	// OnRateSwitch fires when mid-stream adaptation steps an in-service
	// stream across its title's ladder: the stream consumed at from
	// until now and consumes at to from now on, and its next fill is
	// sized against the new rung's context. During the callback
	// st.RateSince() still reports when the ending from-epoch began
	// (it advances to now right after), so collectors can accrue
	// time-weighted delivered-rung accounting statelessly.
	OnRateSwitch(disk int, st *Stream, from, to si.BitRate, now si.Seconds)
	// OnDepart fires when a stream leaves service and frees its capacity.
	OnDepart(disk int, st *Stream, now si.Seconds)
}

// NopObserver implements Observer with no-ops; embed it to override only
// the callbacks of interest.
type NopObserver struct{}

func (NopObserver) OnAdmit(int, *Stream, si.Seconds)                                 {}
func (NopObserver) OnDefer(int, si.Seconds)                                          {}
func (NopObserver) OnReject(int, workload.Request, RejectReason, si.Seconds)         {}
func (NopObserver) OnFill(int, *Stream, si.Seconds, si.Seconds, si.Bits, si.Seconds) {}
func (NopObserver) OnFillComplete(int, *Stream, si.Bits, si.Seconds)                 {}
func (NopObserver) OnStart(int, *Stream, si.Seconds)                                 {}
func (NopObserver) OnStall(int, si.Seconds)                                          {}
func (NopObserver) OnEstimate(int, int, si.Bits, si.Seconds)                         {}
func (NopObserver) OnEstimateResolved(int, bool, si.Seconds)                         {}
func (NopObserver) OnUnderrun(int, int, si.Seconds, si.Seconds)                      {}
func (NopObserver) OnDowngrade(int, workload.Request, si.BitRate, si.BitRate, si.Seconds) {
}
func (NopObserver) OnRateSwitch(int, *Stream, si.BitRate, si.BitRate, si.Seconds) {}
func (NopObserver) OnDepart(int, *Stream, si.Seconds)                             {}

// Observers fans every callback out to each member in order.
type Observers []Observer

func (o Observers) OnAdmit(disk int, st *Stream, now si.Seconds) {
	for _, ob := range o {
		ob.OnAdmit(disk, st, now)
	}
}
func (o Observers) OnDefer(disk int, now si.Seconds) {
	for _, ob := range o {
		ob.OnDefer(disk, now)
	}
}
func (o Observers) OnReject(disk int, req workload.Request, reason RejectReason, now si.Seconds) {
	for _, ob := range o {
		ob.OnReject(disk, req, reason, now)
	}
}
func (o Observers) OnFill(disk int, st *Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds) {
	for _, ob := range o {
		ob.OnFill(disk, st, start, dur, fill, deadline)
	}
}
func (o Observers) OnFillComplete(disk int, st *Stream, fill si.Bits, now si.Seconds) {
	for _, ob := range o {
		ob.OnFillComplete(disk, st, fill, now)
	}
}
func (o Observers) OnStart(disk int, st *Stream, now si.Seconds) {
	for _, ob := range o {
		ob.OnStart(disk, st, now)
	}
}
func (o Observers) OnStall(disk int, now si.Seconds) {
	for _, ob := range o {
		ob.OnStall(disk, now)
	}
}
func (o Observers) OnEstimate(disk int, kc int, size si.Bits, now si.Seconds) {
	for _, ob := range o {
		ob.OnEstimate(disk, kc, size, now)
	}
}
func (o Observers) OnEstimateResolved(disk int, hit bool, now si.Seconds) {
	for _, ob := range o {
		ob.OnEstimateResolved(disk, hit, now)
	}
}
func (o Observers) OnUnderrun(disk int, id int, now, gap si.Seconds) {
	for _, ob := range o {
		ob.OnUnderrun(disk, id, now, gap)
	}
}
func (o Observers) OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	for _, ob := range o {
		ob.OnDowngrade(disk, req, from, to, now)
	}
}
func (o Observers) OnRateSwitch(disk int, st *Stream, from, to si.BitRate, now si.Seconds) {
	for _, ob := range o {
		ob.OnRateSwitch(disk, st, from, to, now)
	}
}
func (o Observers) OnDepart(disk int, st *Stream, now si.Seconds) {
	for _, ob := range o {
		ob.OnDepart(disk, st, now)
	}
}
