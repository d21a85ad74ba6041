package engine

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/si"
)

// WallClock is real time scaled by a constant factor: one wall second is
// scale engine seconds. It is the live server's ClockDomain — the same
// service loop the simulator runs under virtual time paces actual
// deliveries when driven by a WallClock (scale 1 is real time; demos
// compress time with scale 60 and up).
//
// The clock is sharded: DiskClock(i) returns an independent WallShard
// per disk, each with its own engine lock and timer heap, so timers and
// callbacks on one disk never contend with another disk's.
// Timers are pooled on a per-shard freelist with generation-checked
// handles — the live path allocates nothing per schedule in steady state.
//
// Serialization contract: every callback scheduled on a shard runs with
// that shard's lock held, and drivers must enter the engine the same way
// — wrap each call into a Disk in its shard's Do. Distinct shards run
// concurrently; state spanning disks must be safe for that.
//
// Timing: a callback fires on the first tick at or after its
// instant, plus the time its driver takes to wake. Each driver sleeps on
// a time.Timer and, on Linux, on a timerfd armed for the same instant
// (see WallShard.drive): the runtime rounds any timer wait under 1 ms up
// to 1 ms once the process is idle, and the timerfd is what lets a
// sub-millisecond tick be met there. Elsewhere the floor stands, and a
// tick finer than 1 ms buys nothing in an idle process.
type WallClock struct {
	epoch time.Time
	scale float64
	tick  time.Duration

	// jcMax, when positive, enables jitter compensation: every shard
	// aims its timers early by its smoothed observed wakeup lag, clamped
	// to this bound (in wall nanoseconds). See SetJitterComp.
	jcMax atomic.Int64

	mu     sync.Mutex
	shards []*WallShard
}

// DefaultWallTick is the wall-time granularity of the shard timers:
// callbacks fire on the first tick boundary at or after their
// scheduled instant. The wait for the next boundary is usually shorter
// than a tick, and the Go runtime rounds an idle process's timer waits
// up to 1 ms, so even this tick is met only with the driver's timerfd
// wake (Linux); finer ticks (NewWallClockTick) depend on it entirely.
const DefaultWallTick = time.Millisecond

// NewWallClock returns a wall clock whose time starts at zero now and
// advances scale engine seconds per wall second, with the default tick.
func NewWallClock(scale float64) *WallClock {
	return NewWallClockTick(scale, DefaultWallTick)
}

// NewWallClockTick is NewWallClock with an explicit tick, for callers
// that trade driver wake-ups against firing granularity.
func NewWallClockTick(scale float64, tick time.Duration) *WallClock {
	if scale <= 0 {
		panic(fmt.Sprintf("engine: non-positive wall clock scale %v", scale))
	}
	if tick <= 0 {
		panic(fmt.Sprintf("engine: non-positive wall clock tick %v", tick))
	}
	return &WallClock{epoch: time.Now(), scale: scale, tick: tick}
}

// Scale reports the time-compression factor.
func (c *WallClock) Scale() float64 { return c.scale }

// SetJitterComp enables (max > 0) or disables (max <= 0) the
// jitter-compensating deadline scheduler. With compensation on, each
// shard aims a timer at the last tick at or before the requested
// instant minus twice the shard's smoothed observed lag — the wall time
// between a timer's aimed tick and the moment its callback actually
// began executing — the whole back-off clamped to max. That inverts
// the uncompensated rounding: instead of firing up to one tick late
// plus the OS's lag, a timer fires up to one tick plus the clamp early
// and, when the lag estimate tracks, at or before its requested
// instant. The lag estimate is an asymmetric EWMA: it jumps to a new
// spike immediately (a late fire charged to the model is the failure
// being prevented) and decays by 1/64 per observation otherwise, so it
// shadows the recent worst case rather than the mean; the aim doubles
// it because lag under load is bursty — the estimate is what the worst
// recent fire needed, the doubling is the guard band that keeps the
// next, slightly worse burst from landing late anyway.
//
// Firing early is always safe for the streaming model — a fill landing
// ahead of its deadline only deepens the buffer — whereas firing late by
// OS scheduling latency shows up as model underruns at high time
// compression, where a millisecond of wall lag is seconds of engine
// time. Compensation trades a bounded early-delivery skew for not
// charging OS latency to the paper's admission model.
//
// Safe to call at any time, including while shards are running; timers
// already queued keep their uncompensated expiry.
func (c *WallClock) SetJitterComp(max time.Duration) { c.jcMax.Store(int64(max)) }

// JitterComp reports the configured compensation clamp (0 = disabled).
func (c *WallClock) JitterComp() time.Duration { return time.Duration(c.jcMax.Load()) }

// Now reports the scaled time elapsed since the clock was created. All
// shards share this one timeline; only scheduling is sharded.
func (c *WallClock) Now() si.Seconds {
	return si.Seconds(time.Since(c.epoch).Seconds() * c.scale)
}

// WallDuration converts an engine duration to the wall time it spans.
func (c *WallClock) WallDuration(d si.Seconds) time.Duration {
	return (d / si.Seconds(c.scale)).Duration()
}

// DiskClock returns the shard that drives disk i, creating it (and its
// driver goroutine) on first use.
func (c *WallClock) DiskClock(i int) Clock { return c.Shard(i) }

// Shard returns shard i, creating shards up to it on first use.
func (c *WallClock) Shard(i int) *WallShard {
	if i < 0 {
		panic(fmt.Sprintf("engine: negative shard index %d", i))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.shards) <= i {
		s := &WallShard{
			clock:    c,
			id:       len(c.shards),
			nextWake: ^uint64(0),
			kick:     make(chan struct{}, 1),
			done:     make(chan struct{}),
		}
		s.cur = c.tickNow()
		c.shards = append(c.shards, s)
		go s.drive()
	}
	return c.shards[i]
}

// Shards reports how many shards have been created so far.
func (c *WallClock) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// Stop terminates every shard's driver goroutine. Queued timers never
// fire; in-flight callbacks finish. The clock must not be used after.
func (c *WallClock) Stop() {
	c.mu.Lock()
	shards := append([]*WallShard(nil), c.shards...)
	c.mu.Unlock()
	for _, s := range shards {
		s.stop.Do(func() { close(s.done) })
	}
}

// tickNow reports the current absolute tick.
func (c *WallClock) tickNow() uint64 {
	return uint64(time.Since(c.epoch) / c.tick)
}

// tickAt reports the first tick at or after engine time at.
func (c *WallClock) tickAt(at si.Seconds) uint64 {
	if at <= 0 {
		return 0
	}
	wall := c.WallDuration(at)
	return uint64((wall + c.tick - 1) / c.tick)
}

// tickCompensated reports the last tick at or before engine time at
// minus comp wall time — the jitter-compensated aim point. Where
// tickAt rounds a timer up to one tick late, this rounds it up to one
// tick early and then backs off by the lag estimate, so the residual
// scheduling error is early (harmless to the streaming model) rather
// than late (charged to it).
func (c *WallClock) tickCompensated(at si.Seconds, comp time.Duration) uint64 {
	if at <= 0 {
		return 0
	}
	wall := c.WallDuration(at) - comp
	if wall <= 0 {
		return 0
	}
	return uint64(wall / c.tick)
}

// untilTick reports the wall time from now until tick tk (negative if
// tk has passed).
func (c *WallClock) untilTick(tk uint64) time.Duration {
	return time.Duration(tk)*c.tick - time.Since(c.epoch)
}

// WallShard is one disk's clock: a min-heap of pending timers plus the
// lock that serializes the disk's callbacks. It implements Clock.
//
// Two locks, ordered mu → wmu:
//
//   - mu is the engine lock, held across every fired callback and Do.
//     It serializes the disk's state machine exactly as the old global
//     WallClock mutex did — per shard instead of per process.
//   - wmu is the timer lock, guarding the timer heap. Schedule and
//     Cancel take only wmu, so they never wait on a running callback —
//     a callback (holding mu) can schedule without self-deadlock, and
//     other goroutines can schedule while a callback runs.
type WallShard struct {
	clock *WallClock
	id    int

	mu sync.Mutex // engine lock: held across callbacks and Do

	wmu      sync.Mutex // timer lock: guards all fields below
	cur      uint64     // last processed tick
	nextWake uint64     // tick the driver will wake at (^0 when idle)
	timers   timerHeap  // queued (not yet fired or canceled) timers
	seq      uint64     // scheduling counter: the same-tick tie-break
	free     []*wallTimer

	kick chan struct{} // wakes the driver when an earlier timer lands
	done chan struct{}
	stop sync.Once

	// lagEWMA is the shard's smoothed observed wakeup lag in wall
	// nanoseconds (see WallClock.SetJitterComp). The driver goroutine is
	// the only writer; schedulers and stats readers load it atomically.
	lagEWMA atomic.Int64
}

// wallTimer is a pooled timer on a shard's heap. All fields are guarded
// by the shard's wmu; the generation bump on release makes stale Timer
// handles harmless, exactly like VirtualClock events.
type wallTimer struct {
	shard    *WallShard
	gen      uint64
	expiry   uint64 // absolute tick
	seq      uint64 // scheduling order within the shard
	index    int    // position in the shard's heap; -1 when not queued
	canceled bool
	fn       func()
	afn      func(arg any)
	arg      any
	next     *wallTimer // links a fired batch
}

// timerHeap orders a shard's queued timers by (expiry tick, scheduling
// seq): the earliest tick first, and same-tick timers in scheduling
// order. Each timer tracks its own index, so a cancel removes it at once.
type timerHeap []*wallTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].expiry != h[j].expiry {
		return h[i].expiry < h[j].expiry
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	wt := x.(*wallTimer)
	wt.index = len(*h)
	*h = append(*h, wt)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old) - 1
	wt := old[n]
	old[n] = nil
	*h = old[:n]
	wt.index = -1
	return wt
}

// cancel marks the timer canceled if gen still identifies the scheduling
// that issued the handle. A queued timer leaves the heap and is recycled
// at once; one already popped by the driver fires into the canceled
// check instead.
func (wt *wallTimer) cancel(gen uint64) {
	if wt == nil {
		return
	}
	s := wt.shard
	s.wmu.Lock()
	if wt.gen == gen && !wt.canceled {
		wt.canceled = true
		if wt.index >= 0 {
			heap.Remove(&s.timers, wt.index)
			s.releaseLocked(wt)
		}
	}
	s.wmu.Unlock()
}

// ID reports the shard's index within its WallClock.
func (s *WallShard) ID() int { return s.id }

// Now reports the scaled time elapsed since the clock was created.
func (s *WallShard) Now() si.Seconds { return s.clock.Now() }

// Do runs fn with the shard's engine lock held. Every driver call into
// an engine Disk running under this shard must go through Do; callbacks
// fired by Schedule/After already hold the lock.
func (s *WallShard) Do(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Schedule registers fn to run at engine time at. Instants that have
// already passed (the engine computed a start time that wall time
// overtook) run on the next tick rather than panicking: under real
// time, "now" moves while the engine thinks.
func (s *WallShard) Schedule(at si.Seconds, fn func()) Timer {
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return s.schedule(at, fn, nil, nil)
}

// After schedules fn to run delay engine seconds from now.
func (s *WallShard) After(delay si.Seconds, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("engine: negative delay %v", delay))
	}
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return s.schedule(s.clock.Now()+delay, fn, nil, nil)
}

// ScheduleFunc registers the pre-bound callback fn(arg) to run at engine
// time at. As with the virtual clock, a recurring call site allocates
// nothing in steady state: the timer comes off the shard's freelist and
// arg rides in its payload slot.
func (s *WallShard) ScheduleFunc(at si.Seconds, fn func(arg any), arg any) Timer {
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return s.schedule(at, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run delay engine seconds from now.
func (s *WallShard) AfterFunc(delay si.Seconds, fn func(arg any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("engine: negative delay %v", delay))
	}
	if fn == nil {
		panic("engine: scheduling a nil callback")
	}
	return s.schedule(s.clock.Now()+delay, nil, fn, arg)
}

// WakeupLag reports the shard's smoothed observed lag: how late, in
// wall time, the shard's timer callbacks have recently begun executing
// relative to their aimed ticks (with compensation off, how late
// the driver has been to its planned wake-ups).
func (s *WallShard) WakeupLag() time.Duration {
	return time.Duration(s.lagEWMA.Load())
}

// Compensation reports how much wall time the shard currently backs
// its timers off by: twice its lag estimate clamped to the clock's
// jitter-comp bound, or 0 with compensation disabled. (On top of this,
// an armed shard also floors the aim point to the tick — see
// SetJitterComp.) This is the value the serving path exports as a live
// gauge.
func (s *WallShard) Compensation() time.Duration { return s.compensation() }

// noteLag folds one observed lag into the shard's estimate: instant
// attack (a spike raises the estimate at once), slow decay (1/64 per
// observation), so the compensation shadows the recent worst case.
// Driver goroutine only.
func (s *WallShard) noteLag(lag time.Duration) {
	if lag < 0 {
		lag = 0
	}
	old := s.lagEWMA.Load()
	if int64(lag) >= old {
		s.lagEWMA.Store(int64(lag))
		return
	}
	s.lagEWMA.Store(old - (old-int64(lag))>>6)
}

// compensation reports the wall time by which the shard currently aims
// its timers early: twice the lag estimate (the guard band — see
// SetJitterComp), clamped to the configured bound, or 0 with
// compensation off.
func (s *WallShard) compensation() time.Duration {
	max := s.clock.jcMax.Load()
	if max <= 0 {
		return 0
	}
	lag := 2 * s.lagEWMA.Load()
	if lag > max {
		lag = max
	}
	return time.Duration(lag)
}

// PendingTimers reports the number of queued timers (for tests).
func (s *WallShard) PendingTimers() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return len(s.timers)
}

// FreeListLen reports the number of recycled timers available for reuse
// (exposed for pooling tests).
func (s *WallShard) FreeListLen() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return len(s.free)
}

func (s *WallShard) schedule(at si.Seconds, fn func(), afn func(any), arg any) Timer {
	// Jitter compensation: aim at the floor tick of (requested − clamped
	// lag estimate) so the OS's wakeup latency lands the callback near —
	// or just before — its requested instant instead of behind it. The
	// exp <= cur clamp below still floors everything to the next tick,
	// so compensation can never push a timer into the past.
	var exp uint64
	if s.clock.jcMax.Load() > 0 {
		exp = s.clock.tickCompensated(at, s.compensation())
	} else {
		exp = s.clock.tickAt(at)
	}
	s.wmu.Lock()
	if exp <= s.cur {
		exp = s.cur + 1 // past or current tick: fire on the next advance
	}
	wt := s.allocLocked()
	wt.expiry, wt.seq = exp, s.seq
	s.seq++
	wt.fn, wt.afn, wt.arg = fn, afn, arg
	heap.Push(&s.timers, wt)
	gen := wt.gen
	// Wake the driver only when this timer lands before its planned
	// wake-up; claiming nextWake here keeps schedule bursts to one kick.
	needKick := exp < s.nextWake
	if needKick {
		s.nextWake = exp
	}
	s.wmu.Unlock()
	if needKick {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return Timer{wt: wt, gen: gen}
}

// allocLocked takes a timer from the freelist, or makes a new one.
func (s *WallShard) allocLocked() *wallTimer {
	if n := len(s.free); n > 0 {
		wt := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return wt
	}
	return &wallTimer{shard: s, index: -1}
}

// releaseLocked returns a fired or canceled timer to the freelist. The
// generation bump invalidates every Timer handle issued for it.
func (s *WallShard) releaseLocked(wt *wallTimer) {
	wt.gen++
	wt.fn, wt.afn, wt.arg = nil, nil, nil
	wt.canceled = false
	wt.next = nil
	s.free = append(s.free, wt)
}

// nextPendingTickLocked reports the earliest queued expiry.
func (s *WallShard) nextPendingTickLocked() (uint64, bool) {
	if len(s.timers) == 0 {
		return 0, false
	}
	return s.timers[0].expiry, true
}

// advanceLocked moves the shard's current tick up to now and pops every
// timer due by then, in (tick, scheduling) order. Returns the batch to
// fire, linked by next.
func (s *WallShard) advanceLocked(now uint64) *wallTimer {
	var head, tail *wallTimer
	for len(s.timers) > 0 && s.timers[0].expiry <= now {
		wt := heap.Pop(&s.timers).(*wallTimer)
		if tail != nil {
			tail.next = wt
		} else {
			head = wt
		}
		tail = wt
	}
	s.cur = max(s.cur, now)
	return head
}

// fire runs a batch of expired timers under the engine lock, releasing
// each timer back to the freelist first so a callback's own reschedule
// can reuse the timer it fired from.
//
// With compensation armed, each timer's lag is sampled here — at
// callback execution, against the timer's own aimed tick — not just at
// driver wake-up. Execution is where the engine reads "now", so this is
// the lateness the model actually sees: wake-up lag plus engine-lock
// wait plus the batch's earlier callbacks. And because the aimed tick
// already sits one compensation early, lateness measured against it is
// exactly the compensation that would have landed this callback on its
// requested instant — the estimate self-corrects toward zero residual.
func (s *WallShard) fire(batch *wallTimer) {
	if batch == nil {
		return
	}
	comp := s.clock.jcMax.Load() > 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for wt := batch; wt != nil; {
		nx := wt.next
		s.wmu.Lock()
		canceled := wt.canceled
		exp := wt.expiry
		fn, afn, arg := wt.fn, wt.afn, wt.arg
		s.releaseLocked(wt)
		s.wmu.Unlock()
		if !canceled {
			if comp {
				s.noteLag(-s.clock.untilTick(exp))
			}
			if afn != nil {
				afn(arg)
			} else {
				fn()
			}
		}
		wt = nx
	}
}

// drive is the shard's driver goroutine: advance the shard to wall time,
// fire what expired, sleep until the next pending tick (or a kick, when
// a schedule lands earlier than the planned wake-up).
//
// The sleep has two alarms set to the same instant, and the first to
// fire wins. The time.Timer is on time while the process is busy: the
// runtime runs expired timers on every scheduling pass. But once every
// goroutine is parked, the runtime sleeps in the netpoller, which rounds
// a wait under 1 ms up to 1 ms, so a 100 µs tick would fire a whole
// millisecond late. The shard's wake (a timerfd on Linux, nil elsewhere)
// covers that case: its expiry is netpoller I/O, reported at once.
func (s *WallShard) drive() {
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	w := newShardWake()
	defer w.close()
	for {
		s.wmu.Lock()
		batch := s.advanceLocked(s.clock.tickNow())
		next, ok := s.nextPendingTickLocked()
		if ok {
			s.nextWake = next
		} else {
			s.nextWake = ^uint64(0)
		}
		s.wmu.Unlock()

		s.fire(batch)

		select {
		case <-s.done:
			return
		default:
		}
		wait := time.Hour // idle: only a kick or Stop wakes us
		if ok {
			wait = s.clock.untilTick(next)
			if wait <= 0 {
				// Already due: the previous batch's callbacks (or the OS)
				// held us past the next pending tick. That overshoot is
				// wakeup lag just like a late timer fire.
				s.noteLag(-wait)
				continue // advance again without sleeping
			}
		}
		t.Reset(wait)
		if ok {
			w.arm(wait)
		}
		select {
		case <-t.C:
			if ok {
				w.stop()
				// Lag: how far past the planned tick the OS woke us.
				s.noteLag(-s.clock.untilTick(next))
			}
		case <-w.c():
			// A one-shot timerfd that fired is already disarmed. An
			// expiry the reader posted just after a stop drained the
			// channel can still arrive, even with nothing planned (!ok):
			// it costs one extra pass of the loop.
			if !t.Stop() {
				<-t.C
			}
			if ok {
				s.noteLag(-s.clock.untilTick(next))
			}
		case <-s.kick:
			if ok {
				w.stop()
			}
			if !t.Stop() {
				<-t.C
			}
		case <-s.done:
			return
		}
	}
}
