package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/si"
)

func TestVirtualClockOrdering(t *testing.T) {
	e := NewVirtualClock()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run(10)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want clock advanced to 10", e.Now())
	}
}

func TestVirtualClockTieBreakBySchedulingOrder(t *testing.T) {
	e := NewVirtualClock()
	var got []string
	e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(1, func() { got = append(got, "b") })
	e.Run(2)
	if got[0] != "a" || got[1] != "b" {
		t.Errorf("tie order = %v", got)
	}
}

func TestVirtualClockNestedScheduling(t *testing.T) {
	e := NewVirtualClock()
	var got []int
	e.Schedule(1, func() {
		got = append(got, 1)
		e.After(1, func() { got = append(got, 2) })
	})
	e.Run(5)
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("nested = %v", got)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestVirtualClockRunBoundary(t *testing.T) {
	e := NewVirtualClock()
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(5.0001, func() { ran++ })
	e.Run(5) // events exactly at the boundary run; later ones do not
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	e.Run(6)
	if ran != 2 {
		t.Errorf("ran = %d, want 2 after extending", ran)
	}
}

func TestVirtualClockCancel(t *testing.T) {
	e := NewVirtualClock()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	ev.Cancel()
	ev.Cancel()        // double cancel is a no-op
	(Timer{}).Cancel() // zero Timer is inert
	e.Run(2)
	if ran {
		t.Error("canceled event ran")
	}
}

// A Timer whose event already fired must stay inert: the event slot is
// recycled, and a late Cancel must not cancel the slot's next occupant.
func TestVirtualClockCancelAfterFire(t *testing.T) {
	e := NewVirtualClock()
	firstRan, secondRan := false, false
	tm := e.Schedule(1, func() { firstRan = true })
	e.Run(1)
	if !firstRan {
		t.Fatal("first event never ran")
	}
	if e.FreeListLen() != 1 {
		t.Fatalf("freelist = %d after fire, want the event recycled", e.FreeListLen())
	}
	// The next scheduling reuses the fired event's slot.
	tm2 := e.Schedule(2, func() { secondRan = true })
	if e.FreeListLen() != 0 {
		t.Fatal("second schedule did not draw from the freelist")
	}
	tm.Cancel() // stale handle onto a reused slot: must be a no-op
	e.Run(3)
	if !secondRan {
		t.Error("stale Cancel killed the slot's next occupant")
	}
	tm2.Cancel() // cancel after fire on the live handle: also a no-op
}

// A canceled-then-recycled slot behaves the same: double Cancel on the
// stale handle never reaches the new occupant.
func TestVirtualClockStaleCancelOnRecycledSlot(t *testing.T) {
	e := NewVirtualClock()
	tm := e.Schedule(1, func() { t.Error("canceled event ran") })
	tm.Cancel()
	e.Run(1) // drains the canceled event onto the freelist
	ran := false
	e.Schedule(2, func() { ran = true })
	tm.Cancel() // stale: generation advanced at recycling
	tm.Cancel() // and double-cancel stays a no-op
	e.Run(3)
	if !ran {
		t.Error("stale double-Cancel killed the recycled slot's occupant")
	}
}

// Steady-state recurrence reuses one pooled event: after warmup the
// freelist neither grows nor drains.
func TestVirtualClockEventPooling(t *testing.T) {
	e := NewVirtualClock()
	count := 0
	var tick func(arg any)
	tick = func(arg any) {
		count++
		if count < 1000 {
			e.AfterFunc(1, tick, nil)
		}
	}
	e.AfterFunc(1, tick, nil)
	e.Run(2000)
	if count != 1000 {
		t.Fatalf("ticks = %d, want 1000", count)
	}
	if got := e.FreeListLen(); got != 1 {
		t.Errorf("freelist = %d after steady-state recurrence, want exactly 1 pooled event", got)
	}
}

func TestVirtualClockActive(t *testing.T) {
	e := NewVirtualClock()
	if (Timer{}).Active() {
		t.Error("zero Timer reports active")
	}
	if tm := e.Schedule(1, func() {}); !tm.Active() {
		t.Error("live timer reports inactive")
	}
}

func TestVirtualClockPanics(t *testing.T) {
	e := NewVirtualClock()
	e.Schedule(5, func() {})
	e.Run(5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("past", func() { e.Schedule(1, func() {}) })
	mustPanic("nil fn", func() { e.Schedule(10, nil) })
	mustPanic("negative delay", func() { e.After(-1, func() {}) })
}

// Property: any set of events runs in non-decreasing time order and the
// clock never goes backward inside callbacks.
func TestVirtualClockMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewVirtualClock()
		last := si.Seconds(-1)
		ok := true
		for _, d := range delays {
			at := si.Seconds(d)
			e.Schedule(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(1 << 17)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWallClockScaledNow(t *testing.T) {
	c := NewWallClock(1000) // 1 wall ms = 1 engine second
	defer c.Stop()
	time.Sleep(5 * time.Millisecond)
	if now := c.Now(); now < 4 {
		t.Errorf("Now = %v, want >= 4 engine seconds after 5 wall ms at scale 1000", now)
	}
	if c.Scale() != 1000 {
		t.Errorf("Scale = %v", c.Scale())
	}
	if d := c.WallDuration(1000); d != time.Second {
		t.Errorf("WallDuration(1000) = %v, want 1s", d)
	}
}

func TestWallClockAfterFiresUnderLock(t *testing.T) {
	c := NewWallClock(1000)
	defer c.Stop()
	s := c.Shard(0)
	done := make(chan si.Seconds, 1)
	s.Do(func() {
		s.After(10, func() { done <- c.Now() })
	})
	select {
	case at := <-done:
		if at < 10 {
			t.Errorf("callback at %v, want >= 10", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callback never fired")
	}
}

func TestWallClockCancel(t *testing.T) {
	c := NewWallClock(1000)
	defer c.Stop()
	fired := make(chan struct{}, 1)
	var tm Timer
	s := c.Shard(0)
	s.Do(func() { tm = s.After(50, func() { fired <- struct{}{} }) })
	tm.Cancel()
	(*wallTimer)(nil).cancel(0)
	select {
	case <-fired:
		t.Error("canceled timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestWallClockSchedulePastClampsToNow(t *testing.T) {
	c := NewWallClock(1000)
	defer c.Stop()
	time.Sleep(2 * time.Millisecond) // Now() is past 0 already
	done := make(chan struct{}, 1)
	s := c.Shard(0)
	s.Do(func() { s.Schedule(0, func() { done <- struct{}{} }) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("past-scheduled callback never ran")
	}
}

// Callbacks and Do calls are mutually serialized: a counter incremented
// non-atomically from both never tears under the race detector.
func TestWallClockSerialization(t *testing.T) {
	c := NewWallClock(10000)
	defer c.Stop()
	s := c.Shard(0)
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Do(func() { count++ })
			}
		}()
	}
	fired := make(chan struct{})
	s.Do(func() {
		s.After(1, func() { count++; close(fired) })
	})
	wg.Wait()
	<-fired
	s.Do(func() {
		if count != 8*50+1 {
			t.Errorf("count = %d, want %d", count, 8*50+1)
		}
	})
}

// modelEvent is the reference model's view of one scheduling.
type modelEvent struct {
	at       si.Seconds
	id       int
	spawn    bool // firing schedules a child at the firing instant
	canceled bool
}

// The typed queue must fire exactly the sequence a stable sort by
// (time, scheduling order) yields, under interleaved scheduling,
// cancellation (live, fired and stale handles alike), partial runs, and
// callbacks that schedule at the current instant.
func TestVirtualClockMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewVirtualClock()
		var (
			pending   []*modelEvent // the model's queue
			timers    []Timer       // indexed by event id
			got, want []int
		)
		var schedule func(at si.Seconds, spawn bool)
		schedule = func(at si.Seconds, spawn bool) {
			m := &modelEvent{at: at, id: len(timers), spawn: spawn}
			pending = append(pending, m)
			timers = append(timers, e.ScheduleFunc(at, func(arg any) {
				m := arg.(*modelEvent)
				if e.Now() != m.at {
					t.Errorf("seed %d: event %d due at %v fired at %v", seed, m.id, m.at, e.Now())
				}
				got = append(got, m.id)
				if m.spawn {
					schedule(e.Now(), false)
				}
			}, m))
		}
		// runModel fires the model up to until. Appends land in scheduling
		// order and the sort is stable, so equal instants keep that order;
		// children the clock's callbacks spawned during e.Run are already
		// appended, and the model only has to replay the order.
		runModel := func(until si.Seconds) {
			for {
				sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
				if len(pending) == 0 || pending[0].at > until {
					return
				}
				m := pending[0]
				pending = pending[1:]
				if !m.canceled {
					want = append(want, m.id)
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				schedule(e.Now()+si.Seconds(rng.Intn(12)), rng.Intn(4) == 0)
			case op < 8 && len(timers) > 0:
				id := rng.Intn(len(timers))
				timers[id].Cancel()
				// A handle whose event already left the queue is stale and
				// must not touch whatever occupies the recycled slot now.
				for _, m := range pending {
					if m.id == id {
						m.canceled = true
					}
				}
			default:
				until := e.Now() + si.Seconds(rng.Intn(6))
				e.Run(until)
				runModel(until)
				if e.Now() != until {
					t.Fatalf("seed %d: Now = %v after Run(%v)", seed, e.Now(), until)
				}
				if e.Pending() != len(pending) {
					t.Fatalf("seed %d: Pending = %d, model holds %d", seed, e.Pending(), len(pending))
				}
			}
		}
		e.Run(e.Now() + 100)
		runModel(e.Now())
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, model fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d was event %d, model says %d", seed, i, got[i], want[i])
			}
		}
		if e.Pending() != 0 || e.FreeListLen() == 0 {
			t.Fatalf("seed %d: pending=%d freelist=%d after draining", seed, e.Pending(), e.FreeListLen())
		}
	}
}

// Events sharing one instant drain in scheduling order, whatever else is
// queued around them and even when the instant's own callbacks add more.
func TestVirtualClockSameInstantFIFODrain(t *testing.T) {
	e := NewVirtualClock()
	var got []int
	note := func(arg any) { got = append(got, arg.(int)) }
	const n = 300
	for i := 0; i < n; i++ {
		e.ScheduleFunc(5, note, i)
		e.ScheduleFunc(si.Seconds(6+i%7), note, -1) // later clutter
		e.ScheduleFunc(si.Seconds(i%5), note, -1)   // earlier clutter
	}
	e.Schedule(5, func() {
		for i := n; i < n+50; i++ {
			e.ScheduleFunc(e.Now(), note, i) // joins the back of instant 5
		}
	})
	e.Run(5)
	var at5 []int
	for _, v := range got {
		if v >= 0 {
			at5 = append(at5, v)
		}
	}
	if len(at5) != n+50 {
		t.Fatalf("instant 5 fired %d events, want %d", len(at5), n+50)
	}
	for i, v := range at5 {
		if v != i {
			t.Fatalf("instant 5 position %d fired event %d: not FIFO", i, v)
		}
	}
}

// Cancellation is lazy: the canceled event stays queued until Run reaches
// it, is then skipped and recycled, and the stale handle stays inert once
// the slot has a new occupant.
func TestVirtualClockCanceledEventSkippedAndRecycled(t *testing.T) {
	e := NewVirtualClock()
	stale := e.Schedule(1, func() { t.Error("canceled event ran") })
	ranB, ranC := false, false
	e.Schedule(2, func() { ranB = true })
	stale.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want the canceled event still queued", e.Pending())
	}
	e.Run(1)
	if e.Pending() != 1 || e.FreeListLen() != 1 {
		t.Fatalf("pending=%d freelist=%d after Run reached the canceled event, want 1 and 1", e.Pending(), e.FreeListLen())
	}
	e.Schedule(3, func() { ranC = true })
	if e.FreeListLen() != 0 {
		t.Fatal("the canceled event's slot was not reused")
	}
	stale.Cancel()
	e.Run(3)
	if !ranB || !ranC {
		t.Errorf("ranB=%v ranC=%v: a stale Cancel reached a live event", ranB, ranC)
	}
}

// The paper-day shape — a chained near-term timer over 200 parked
// arrivals — schedules and fires without allocating.
func TestVirtualClockParkedQueueAllocFree(t *testing.T) {
	e := NewVirtualClock()
	for j := 0; j < 200; j++ {
		e.Schedule(si.Seconds(1e9+float64(j*7919%1000)), func() {})
	}
	fired := 0
	tick := func(any) { fired++ }
	e.AfterFunc(1, tick, nil)
	e.Run(e.Now() + 1) // warm the freelist
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterFunc(1, tick, nil)
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("schedule+fire over 200 parked events: %v allocs/op, want 0", allocs)
	}
	if fired != 1002 || e.Pending() != 200 {
		t.Errorf("fired=%d pending=%d, want 1002 and the 200 parked events", fired, e.Pending())
	}
}

// partsModel drives a VirtualClock and the sorted reference model side by
// side and, white-box, checks the two-part queue after every step: the
// near run ascending by (time, scheduling order) and within its cap, and
// Pending equal to the model's count (canceled slots included).
type partsModel struct {
	t         *testing.T
	e         *VirtualClock
	pending   []*modelEvent
	timers    []Timer
	got, want []int
	chain     func(m *modelEvent) (si.Seconds, bool) // delay of a fired event's successor, if any

	maxNear, maxFar int
	overflow        int // schedulings inside the window that found near full
	splitTies       int // checks that saw one instant queued in both parts
}

func (p *partsModel) schedule(at si.Seconds) *modelEvent {
	m := &modelEvent{at: at, id: len(p.timers)}
	p.pending = append(p.pending, m)
	if at-p.e.Now() <= nearWindow && p.e.near.n == nearCap {
		p.overflow++
	}
	p.timers = append(p.timers, p.e.ScheduleFunc(at, func(arg any) {
		m := arg.(*modelEvent)
		if p.e.Now() != m.at {
			p.t.Errorf("event %d due at %v fired at %v", m.id, m.at, p.e.Now())
		}
		p.got = append(p.got, m.id)
		if p.chain != nil {
			if delay, ok := p.chain(m); ok {
				p.schedule(p.e.Now() + delay)
			}
		}
	}, m))
	return m
}

func (p *partsModel) cancel(id int) {
	p.timers[id].Cancel()
	for _, m := range p.pending {
		if m.id == id {
			m.canceled = true
		}
	}
}

// run advances clock and model to until and compares them.
func (p *partsModel) run(until si.Seconds) {
	p.t.Helper()
	p.e.Run(until)
	for {
		sort.SliceStable(p.pending, func(i, j int) bool { return p.pending[i].at < p.pending[j].at })
		if len(p.pending) == 0 || p.pending[0].at > until {
			break
		}
		if m := p.pending[0]; !m.canceled {
			p.want = append(p.want, m.id)
		}
		p.pending = p.pending[1:]
	}
	if p.e.Now() != until {
		p.t.Fatalf("Now = %v after Run(%v)", p.e.Now(), until)
	}
	p.check()
	if len(p.got) != len(p.want) {
		p.t.Fatalf("fired %d events by %v, model fired %d", len(p.got), until, len(p.want))
	}
	for i := range p.want {
		if p.got[i] != p.want[i] {
			p.t.Fatalf("firing %d was event %d, model says %d", i, p.got[i], p.want[i])
		}
	}
}

func (p *partsModel) check() {
	p.t.Helper()
	e := p.e
	if e.Pending() != len(p.pending) {
		p.t.Fatalf("Pending = %d, model holds %d", e.Pending(), len(p.pending))
	}
	if e.near.n < 0 || e.near.n > nearCap {
		p.t.Fatalf("near holds %d slots, cap %d", e.near.n, nearCap)
	}
	inNear := map[si.Seconds]bool{}
	for i := 0; i < e.near.n; i++ {
		s := e.near.slots[(e.near.head+i)&nearMask]
		inNear[s.at] = true
		if i > 0 && !e.near.slots[(e.near.head+i-1)&nearMask].before(s) {
			p.t.Fatalf("near run out of order at position %d", i)
		}
	}
	for _, s := range e.far {
		if inNear[s.at] {
			p.splitTies++
			break
		}
	}
	p.maxNear, p.maxFar = max(p.maxNear, e.near.n), max(p.maxFar, len(e.far))
}

// The two-part queue must fire what the single sorted model fires on
// traces built to straddle the parts: parked bursts under live chains,
// more live events than the near run holds, same-instant ties split across
// the parts, scheduling at the current instant and in descending order,
// cancellation of slots in either part and through stale handles, and
// partial runs that stop on an instant queued in both parts.
func TestVirtualClockTwoPartsMatchSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { twoPartsTrace(t, seed) })
	}
}

func twoPartsTrace(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := &partsModel{t: t, e: NewVirtualClock()}
	// One firing in three schedules a successor: at the same instant,
	// milliseconds ahead (a live chain), or past the window.
	p.chain = func(m *modelEvent) (si.Seconds, bool) {
		switch rng.Intn(9) {
		case 0:
			return 0, true
		case 1:
			return si.Seconds(0.001 + 0.02*rng.Float64()), true
		case 2:
			return nearWindow + si.Seconds(rng.Intn(30)), true
		}
		return 0, false
	}
	for step := 0; step < 300; step++ {
		now := p.e.Now()
		switch op := rng.Intn(12); {
		case op < 3: // a live event
			p.schedule(now + si.Seconds(rng.Float64()))
		case op < 5: // a parked burst, minutes ahead
			for i := rng.Intn(40); i >= 0; i-- {
				p.schedule(now + si.Seconds(60+rng.Intn(600)))
			}
		case op == 5: // more live events than near holds, many tied
			for i := 0; i < nearCap+rng.Intn(nearCap); i++ {
				p.schedule(now + si.Seconds(1+rng.Intn(3)))
			}
		case op == 6: // descending schedules, each walking the whole run
			for i := 20; i > 0; i-- {
				p.schedule(now + si.Seconds(i)/8)
			}
		case op == 7: // at the current instant
			p.schedule(now)
		case op < 10 && len(p.timers) > 0: // live, fired and stale handles alike
			p.cancel(rng.Intn(len(p.timers)))
		default:
			until := now + si.Seconds(rng.Intn(4))
			if len(p.pending) > 0 && rng.Intn(2) == 0 {
				until = p.pending[rng.Intn(len(p.pending))].at // stop on a queued instant
			}
			p.run(max(until, now))
		}
		p.check()
	}
	p.run(p.e.Now() + 1000)
	if p.e.Pending() != 0 {
		t.Fatalf("%d events pending after the drain", p.e.Pending())
	}
	if p.maxNear != nearCap || p.overflow == 0 || p.maxFar < 100 || p.splitTies == 0 {
		t.Errorf("trace did not straddle the parts: near peaked at %d, %d overflows, far peaked at %d, %d split ties",
			p.maxNear, p.overflow, p.maxFar, p.splitTies)
	}
}

// A partial run stops exactly on its boundary whichever part holds the
// boundary's events: those due at until fire, in scheduling order across
// the parts; the next instant's stay queued in both.
func TestVirtualClockRunBoundaryInEachPart(t *testing.T) {
	p := &partsModel{t: t, e: NewVirtualClock()}
	farAt, farNext := p.schedule(10), p.schedule(10.5) // beyond the window: the heap
	p.run(8)
	nearAt, nearNext := p.schedule(10), p.schedule(10.5) // inside it now: the run
	if p.e.near.n != 2 || len(p.e.far) != 2 {
		t.Fatalf("near holds %d, far %d; want the boundary instant in both", p.e.near.n, len(p.e.far))
	}
	p.run(10)
	if len(p.got) != 2 || p.got[0] != farAt.id || p.got[1] != nearAt.id {
		t.Fatalf("Run(10) fired %v, want [%d %d]", p.got, farAt.id, nearAt.id)
	}
	if p.e.near.n != 1 || len(p.e.far) != 1 {
		t.Fatalf("near holds %d, far %d after the boundary; want one each", p.e.near.n, len(p.e.far))
	}
	p.cancel(nearAt.id) // stale: fired already
	p.cancel(farNext.id)
	p.run(11)
	if len(p.got) != 3 || p.got[2] != nearNext.id {
		t.Fatalf("fired %v, want the canceled heap slot skipped and %d last", p.got, nearNext.id)
	}
}

// One insertion into the near run never moves more than its cap: the run
// stops accepting at nearCap slots and later schedulings go to the heap,
// even when every one of them belongs at the front.
func TestVirtualClockNearInsertBounded(t *testing.T) {
	p := &partsModel{t: t, e: NewVirtualClock()}
	e := p.e
	for i := 3 * nearCap; i > 0; i-- { // descending: each belongs at the head
		before, farBefore := e.near.n, len(e.far)
		m := p.schedule(si.Seconds(i) / 1000)
		p.check()
		if before == nearCap {
			if e.near.n != nearCap || len(e.far) != farBefore+1 {
				t.Fatalf("scheduling %d with near full: near %d, far %d -> %d", m.id, e.near.n, farBefore, len(e.far))
			}
			continue
		}
		if head := e.near.slots[e.near.head]; head.at != m.at || e.near.n != before+1 {
			t.Fatalf("scheduling %d: near head due %v (n=%d), want the new earliest slot", m.id, head.at, e.near.n)
		}
	}
	p.run(1)
	for i, id := range p.got {
		if id != len(p.got)-1-i {
			t.Fatalf("firing %d was event %d: not time order", i, id)
		}
	}
}

// The Fig. 14 shape — ten live chains a few milliseconds long over 3,000
// parked events — schedules and fires without allocating, and without
// the live events ever reaching the heap.
func TestVirtualClockLiveChainsOverParkedAllocFree(t *testing.T) {
	e := NewVirtualClock()
	for j := 0; j < 3000; j++ {
		e.Schedule(si.Seconds(1e9+float64(j*7919%3000)), func() {})
	}
	fired := 0
	var tick func(arg any)
	tick = func(arg any) {
		fired++
		e.AfterFunc(si.Seconds(0.002+0.001*float64(arg.(int))), tick, arg)
	}
	chains := make([]any, 10) // boxed once, outside the measured region
	for i := range chains {
		chains[i] = i
		e.AfterFunc(si.Seconds(0.001*float64(i)), tick, chains[i])
	}
	e.Run(1) // warm the freelist
	allocs := testing.AllocsPerRun(1000, func() { e.Run(e.Now() + 0.05) })
	if allocs != 0 {
		t.Errorf("ten live chains over 3,000 parked events: %v allocs/op, want 0", allocs)
	}
	if fired < 10000 || e.Pending() != 3010 || len(e.far) != 3000 {
		t.Errorf("fired=%d pending=%d far=%d, want the 3,000 parked events alone in the heap under 10 live ones", fired, e.Pending(), len(e.far))
	}
}

// A chained timer in After's closure form — every fired event schedules
// its successor — schedules and fires without allocating once the
// freelist is warm.
func TestVirtualClockAfterChainAllocFree(t *testing.T) {
	e := NewVirtualClock()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		e.After(1, tick)
	}
	e.After(1, tick)
	e.Run(e.Now() + 1) // warm the freelist
	allocs := testing.AllocsPerRun(1000, func() { e.Run(e.Now() + 1) })
	if allocs != 0 {
		t.Errorf("chained After: %v allocs/op, want 0", allocs)
	}
	if fired != 1002 || e.Pending() != 1 {
		t.Errorf("fired=%d pending=%d, want 1002 and the chain's next event", fired, e.Pending())
	}
}
