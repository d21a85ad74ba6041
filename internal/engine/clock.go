package engine

import (
	"fmt"

	"repro/internal/si"
)

// Clock abstracts time for the streaming runtime. The engine never reads
// time.Now or sleeps; it asks its Clock for the current instant and
// schedules callbacks at future instants. Two implementations exist:
//
//   - VirtualClock, a discrete-event loop whose time jumps from event to
//     event. The simulator (internal/sim) uses it to replay a day of
//     arrivals in milliseconds with perfectly reproducible results.
//   - WallClock, real time scaled by a constant factor. The live server
//     (cmd/vodserver) uses it so the same service loop paces actual
//     deliveries.
//
// A Clock implementation must run callbacks one at a time: the engine's
// per-disk state is synchronized only by this serialization (the
// VirtualClock is single-threaded; the WallClock holds a mutex across
// every callback).
type Clock interface {
	// Now reports the current time.
	Now() si.Seconds
	// Schedule registers fn to run at time at and returns a handle for
	// cancellation. Scheduling into the past is a programming error for
	// the virtual clock; the wall clock clamps it to "immediately".
	Schedule(at si.Seconds, fn func()) Timer
	// After schedules fn to run delay from now.
	After(delay si.Seconds, fn func()) Timer
	// ScheduleFunc registers the pre-bound callback fn(arg) to run at
	// time at. Unlike Schedule, recurring call sites pay no per-call
	// closure: fn is typically a package-level function and arg the
	// object it operates on, so a steady-state caller allocates nothing.
	ScheduleFunc(at si.Seconds, fn func(arg any), arg any) Timer
	// AfterFunc schedules fn(arg) to run delay from now.
	AfterFunc(delay si.Seconds, fn func(arg any), arg any) Timer
}

// ClockDomain hands out the clock that drives each disk. The paper's
// service model is per-disk — every disk runs its own period-by-period
// fill schedule — so nothing in the engine requires two disks to share a
// timer queue, only that each disk's own callbacks are serialized.
//
//   - VirtualClock is a single-shard domain: DiskClock returns the same
//     deterministic event loop for every disk, which is what keeps
//     simulation output byte-identical (one global (time, seq) order).
//   - WallClock is a sharded domain: DiskClock returns an independent
//     WallShard per disk, each with its own lock and timer heap, so live
//     traffic on one disk never contends on another disk's lock.
//
// The serialization contract is per shard: two disks mapped to different
// shards run their callbacks concurrently, so cross-disk mutable state
// (an engine Gate, an Observer) must either be sharded itself or be safe
// under concurrent calls when driven by a multi-shard domain.
type ClockDomain interface {
	// DiskClock returns the clock that drives disk i.
	DiskClock(i int) Clock
}

// Timer is a scheduled-callback handle, returned by value so issuing one
// never allocates. The zero Timer is inert: Cancel on it is a no-op, as
// is Cancel on an already fired or canceled timer. Virtual-clock events
// and wall-shard timers are both pooled on freelists; the generation
// captured here keeps a stale handle from canceling the slot's next
// occupant.
type Timer struct {
	ev  *Event
	gen uint64
	wt  *wallTimer
}

// Cancel prevents the callback from running. Canceling an already fired
// or canceled timer — or the zero Timer — is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil {
		t.ev.cancel(t.gen)
	}
	if t.wt != nil {
		t.wt.cancel(t.gen)
	}
}

// Active reports whether the timer holds a live handle (it may still
// have fired already; Active only distinguishes the zero Timer).
func (t Timer) Active() bool { return t.ev != nil || t.wt != nil }

// VirtualClock is a virtual-time discrete-event loop. Callbacks scheduled
// at a time run in time order; ties run in scheduling order, which keeps
// runs deterministic.
//
// Fired and canceled events are recycled on a freelist, so a steady-state
// workload (every callback scheduling a successor) runs without heap
// allocation.
type VirtualClock struct {
	now  si.Seconds
	near nearRun    // live events: due within nearWindow when scheduled
	far  eventQueue // parked events, and near's overflow
	seq  int64
	free []*Event
}

// Event is a callback scheduled on a VirtualClock. Events are owned and
// recycled by the clock; external code holds them only inside a Timer,
// whose generation check makes stale handles harmless.
type Event struct {
	fn       func()
	afn      func(arg any)
	arg      any
	gen      uint64
	canceled bool
}

// cancel marks the event canceled if gen still identifies the scheduling
// that issued the handle; a recycled event (gen advanced) is untouched.
func (e *Event) cancel(gen uint64) {
	if e != nil && e.gen == gen {
		e.canceled = true
	}
}

// NewVirtualClock returns a virtual clock with the time at zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// DiskClock returns the clock itself for every disk: the virtual clock is
// a single-shard ClockDomain, so all disks share one deterministic
// (time, scheduling-order) event sequence.
func (e *VirtualClock) DiskClock(int) Clock { return e }

// Now reports the current virtual time.
func (e *VirtualClock) Now() si.Seconds { return e.now }

// alloc takes an event from the freelist, or makes a new one.
func (e *VirtualClock) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release returns a fired or canceled event to the freelist. The
// generation bump invalidates every Timer handle issued for it.
func (e *VirtualClock) release(ev *Event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

func (e *VirtualClock) push(at si.Seconds, fn func(), afn func(any), arg any) Timer {
	if at < e.now {
		panic(fmt.Sprintf("engine: scheduling into the past (%v < %v)", at, e.now))
	}
	ev := e.alloc()
	e.seq++
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	x := queuedEvent{at: at, seq: e.seq, ev: ev}
	if at-e.now <= nearWindow && e.near.n < nearCap {
		e.near.insert(x) // a cost hint only, see nearRun
	} else {
		e.far.push(x)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule registers fn to run at time at, which must not precede the
// current time. It returns a handle for cancellation.
func (e *VirtualClock) Schedule(at si.Seconds, fn func()) Timer {
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return e.push(at, fn, nil, nil)
}

// After schedules fn to run delay from now.
func (e *VirtualClock) After(delay si.Seconds, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("engine: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// ScheduleFunc registers the pre-bound callback fn(arg) to run at time
// at. With fn a package-level function, a recurring call site allocates
// nothing in steady state: the event comes off the freelist and arg rides
// in the event's payload slot.
func (e *VirtualClock) ScheduleFunc(at si.Seconds, fn func(arg any), arg any) Timer {
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return e.push(at, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run delay from now.
func (e *VirtualClock) AfterFunc(delay si.Seconds, fn func(arg any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("engine: negative delay %v", delay))
	}
	return e.ScheduleFunc(e.now+delay, fn, arg)
}

// Run processes events until the queue empties or the clock passes until.
// Events scheduled exactly at until still run.
func (e *VirtualClock) Run(until si.Seconds) {
	for e.near.n+len(e.far) > 0 {
		// The queue's head is the earlier of the two parts' heads.
		head := &e.near.slots[e.near.head]
		fromNear := e.near.n > 0 && (len(e.far) == 0 || head.before(e.far[0]))
		if !fromNear {
			head = &e.far[0]
		}
		at, next := head.at, head.ev
		if at > until {
			break
		}
		if fromNear {
			e.near.pop()
		} else {
			e.far.pop()
		}
		if next.canceled {
			e.release(next)
			continue
		}
		e.now = at
		// Copy the callback out and recycle the event before running it:
		// the callback may schedule again and reuse this very slot.
		fn, afn, arg := next.fn, next.afn, next.arg
		e.release(next)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
	}
	if e.now < until {
		e.now = until
	}
}

// Pending reports the number of events still queued (including canceled
// ones not yet drained).
func (e *VirtualClock) Pending() int { return e.near.n + len(e.far) }

// FreeListLen reports the number of recycled events available for reuse
// (exposed for pooling tests).
func (e *VirtualClock) FreeListLen() int { return len(e.free) }

// queuedEvent is one slot of the event queue: the ordering key held by
// value, so sifting compares and moves slots without touching the events.
type queuedEvent struct {
	at  si.Seconds
	seq int64
	ev  *Event
}

func (a queuedEvent) before(b queuedEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// nearRun holds the live part of the pending set. Drivers schedule every
// arrival up front and each stream in service parks a departure timer, so
// thousands of slots (Fig. 14: 2,650 on average; depth 700: ~12 k) sit
// minutes ahead of about one live event per disk, milliseconds ahead; in
// one heap every completion climbs to the root and every pop sifts a
// parked slot back down. Events due within nearWindow go to this short
// ascending ring instead, the rest — overflow included — to the heap.
// Routing is a cost hint, never an ordering decision: Run fires the
// earlier of the two heads by (at, seq). So neither constant is a knob.
type nearRun struct {
	slots   [nearCap]queuedEvent
	head, n int
}

const nearWindow, nearCap = si.Seconds(5), 64
const nearMask = nearCap - 1 // the ring is indexed by mask: nearCap is a power of two

// insert walks x in from the back, behind every slot due at or before its
// instant: a new slot has the highest seq, so that is its (at, seq) place.
func (r *nearRun) insert(x queuedEvent) {
	i := r.head + r.n // ring positions are taken modulo nearCap
	for ; i > r.head && r.slots[(i-1)&nearMask].at > x.at; i-- {
		r.slots[i&nearMask] = r.slots[(i-1)&nearMask]
	}
	r.slots[i&nearMask] = x
	r.n++
}

func (r *nearRun) pop() { r.head, r.n = (r.head+1)&nearMask, r.n-1 }

// eventQueue is a 4-ary min-heap of queuedEvents by (time, sequence): a
// push or pop crosses log4 rather than log2 levels (six, not twelve, at
// 3,000 slots) for three more compares per level of a pop. Cancellation is
// lazy — a canceled event stays queued until Run pops and skips it —
// because measured days cancel a few hundred of several million events, so
// in-place removal would maintain a position per event for nothing.
type eventQueue []queuedEvent

func (q *eventQueue) push(x queuedEvent) {
	h := append(*q, x)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// pop removes the earliest slot; the caller has read it from q[0].
func (q *eventQueue) pop() {
	h := *q
	last := len(h) - 1
	x := h[last]
	h[last] = queuedEvent{}
	*q = h[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, last); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(x) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if last > 0 {
		h[i] = x
	}
}
