package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/si"
)

// Eight shards driven by eight goroutines at once: every shard's
// callbacks and Do calls are serialized against each other (per-shard
// non-atomic counters never tear under -race), shards never block each
// other, and every scheduled timer either fires or is canceled.
func TestWallShardsConcurrentScheduleCancelFire(t *testing.T) {
	c := NewWallClockTick(10000, 100*time.Microsecond)
	defer c.Stop()
	const shards = 8
	const perShard = 200
	counts := make([]int, shards)
	var wg sync.WaitGroup
	var fired sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := c.Shard(i)
			for j := 0; j < perShard; j++ {
				switch j % 3 {
				case 0: // near-future timer that must fire
					fired.Add(1)
					s.Do(func() {
						s.After(si.Seconds(1+j%5), func() {
							counts[i]++ // serialized by the shard's lock
							fired.Done()
						})
					})
				case 1: // far-future timer canceled immediately
					var tm Timer
					s.Do(func() { tm = s.After(si.Seconds(3600), func() { counts[i]++ }) })
					tm.Cancel()
				default: // plain engine-lock work interleaved with firing
					s.Do(func() { counts[i]++ })
				}
			}
		}(i)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { fired.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scheduled timers never all fired")
	}
	if got := c.Shards(); got != shards {
		t.Fatalf("Shards() = %d, want %d", got, shards)
	}
	for i := 0; i < shards; i++ {
		var got, pending int
		c.Shard(i).Do(func() { got = counts[i] })
		pending = c.Shard(i).PendingTimers()
		if got == 0 {
			t.Errorf("shard %d: no callbacks ran", i)
		}
		if pending != 0 {
			t.Errorf("shard %d: %d timers still pending after fire/cancel", i, pending)
		}
	}
}

// A Timer handle outlives the timer it names: once the timer fires and
// its pooled wallTimer is recycled for a new scheduling, the stale
// handle's Cancel must be a no-op on the slot's new occupant — including
// when the stale handle is canceled from another goroutine.
func TestWallTimerStaleHandleAfterRecycle(t *testing.T) {
	c := NewWallClockTick(10000, 100*time.Microsecond)
	defer c.Stop()
	s := c.Shard(0)

	firstFired := make(chan struct{})
	var first Timer
	s.Do(func() { first = s.After(1, func() { close(firstFired) }) })
	select {
	case <-firstFired:
	case <-time.After(5 * time.Second):
		t.Fatal("first timer never fired")
	}

	// The fired timer is back on the freelist; the next scheduling must
	// reuse it (that is the pooling contract this test pins down).
	if s.FreeListLen() == 0 {
		t.Fatal("fired timer was not pooled")
	}
	secondFired := make(chan struct{})
	var second Timer
	s.Do(func() { second = s.After(2, func() { close(secondFired) }) })
	if first.wt != second.wt {
		t.Fatal("second scheduling did not reuse the pooled timer")
	}

	first.Cancel() // stale: generation moved on with the recycle
	select {
	case <-secondFired:
	case <-time.After(5 * time.Second):
		t.Fatal("recycled timer was killed by a stale handle's Cancel")
	}

	// Double-cancel and post-fire cancel are no-ops too.
	second.Cancel()
	second.Cancel()
}

// Stale handles must stay harmless across shards: handles issued by one
// shard name that shard's pool only, and canceling them concurrently
// with another shard's traffic must neither panic nor kill anything.
func TestWallTimerStaleHandlesAcrossShards(t *testing.T) {
	c := NewWallClockTick(10000, 100*time.Microsecond)
	defer c.Stop()
	const n = 64
	stale := make([]Timer, 0, 2*n)
	var mu sync.Mutex
	var fired sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := c.Shard(i)
			for j := 0; j < n; j++ {
				var tm Timer
				ch := make(chan struct{})
				s.Do(func() { tm = s.After(si.Seconds(j%3), func() { close(ch) }) })
				<-ch
				mu.Lock()
				stale = append(stale, tm) // fired: handle now stale
				mu.Unlock()
			}
			// Live traffic that stale cancels must not disturb.
			fired.Add(1)
			s.Do(func() { s.After(1, fired.Done) })
		}(i)
	}
	wg.Add(1)
	go func() { // concurrent stale-cancel storm
		defer wg.Done()
		for k := 0; k < 4*n; k++ {
			mu.Lock()
			for _, tm := range stale {
				tm.Cancel()
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	done := make(chan struct{})
	go func() { fired.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("live timers lost to stale cancels")
	}
}

// Scheduling on a warm shard allocates nothing: the timer comes off the
// freelist and the handle is a value. This is the live path's per-fill
// cost, so it is pinned at exactly zero.
func TestWallShardSteadyStateAllocFree(t *testing.T) {
	c := NewWallClock(1) // slow scale: nothing fires during the test
	defer c.Stop()
	s := c.Shard(0)
	// Warm the pool and the wheel's occupied paths.
	tm := s.Schedule(si.Seconds(7200), func() {})
	tm.Cancel()
	allocs := testing.AllocsPerRun(2000, func() {
		tm := s.Schedule(si.Seconds(7200), func() {})
		tm.Cancel()
	})
	if allocs != 0 {
		t.Errorf("warm schedule+cancel allocates %.1f objects/op, want 0", allocs)
	}
	if s.PendingTimers() != 0 {
		t.Errorf("%d timers leaked", s.PendingTimers())
	}
	if s.FreeListLen() == 0 {
		t.Error("freelist empty after churn; pooling is broken")
	}
}

// FIFO within a tick: timers scheduled for the same instant fire in
// scheduling order, like the virtual clock's sequence tie-break.
func TestWallShardSameTickFIFO(t *testing.T) {
	c := NewWallClockTick(1000, time.Millisecond)
	defer c.Stop()
	s := c.Shard(0)
	var order []int
	done := make(chan struct{})
	s.Do(func() {
		at := c.Now() + 50
		for i := 0; i < 10; i++ {
			i := i
			s.Schedule(at, func() {
				order = append(order, i)
				if len(order) == 10 {
					close(done)
				}
			})
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("same-tick batch never fired")
	}
	s.Do(func() {
		for i, got := range order {
			if got != i {
				t.Fatalf("fire order %v, want scheduling order", order)
				return
			}
		}
	})
}

// The point of sharding: scheduling throughput must scale when eight
// goroutines hammer eight shards instead of one. The threshold is the
// acceptance bar (2x at 8 disks); actual scaling is closer to linear.
func TestWallClockShardContentionScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling measurement")
	}
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("GOMAXPROCS %d < 8: contention cannot parallelize", runtime.GOMAXPROCS(0))
	}
	const goroutines = 8
	const ops = 30000
	churn := func(shardOf func(int) *WallShard) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := shardOf(g)
				for i := 0; i < ops; i++ {
					s.Schedule(si.Seconds(3600+i%64), func() {}).Cancel()
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	best := func(shardOf func(int) *WallShard) time.Duration {
		min := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			if d := churn(shardOf); d < min {
				min = d
			}
		}
		return min
	}
	single := NewWallClock(1)
	defer single.Stop()
	sharded := NewWallClock(1)
	defer sharded.Stop()
	s0 := single.Shard(0)
	oneShard := best(func(int) *WallShard { return s0 })
	perShard := best(func(g int) *WallShard { return sharded.Shard(g) })
	speedup := float64(oneShard) / float64(perShard)
	t.Logf("schedule/cancel churn: 1 shard %v, 8 shards %v, speedup %.1fx", oneShard, perShard, speedup)
	if speedup < 2 {
		t.Errorf("8-shard speedup %.2fx, want >= 2x over the single-shard baseline", speedup)
	}
}

// Eight goroutines scheduling and cancelling far-future timers, all on
// one shard (the old global-mutex arrangement) or one shard each, stay
// on the pooled-timer freelist: 400,000 operations allocate less than
// once per operation — only the goroutines themselves allocate.
func TestWallShardContendedChurnAllocFree(t *testing.T) {
	const clients, ops = 8, 400_000
	for _, tc := range []struct {
		name  string
		shard func(g int) int
	}{
		{"1 shard", func(int) int { return 0 }},
		{"8 shards", func(g int) int { return g }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewWallClockTick(1, time.Millisecond)
			defer c.Stop()
			for g := 0; g < clients; g++ { // warm every shard's pool
				c.Shard(tc.shard(g)).Schedule(si.Seconds(7200), func() {}).Cancel()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(s *WallShard) {
					defer wg.Done()
					for i := 0; i < ops/clients; i++ {
						// Far-future expiries: the drivers never wake to fire.
						s.Schedule(si.Seconds(7200+i%64), func() {}).Cancel()
					}
				}(c.Shard(tc.shard(g)))
			}
			wg.Wait()
			runtime.ReadMemStats(&after)
			if perOp := (after.Mallocs - before.Mallocs) / ops; perOp != 0 {
				t.Errorf("contended schedule+cancel allocates %d objects/op, want 0", perOp)
			}
			for g := 0; g < clients; g++ {
				if n := c.Shard(tc.shard(g)).PendingTimers(); n != 0 {
					t.Errorf("shard %d: %d timers leaked", tc.shard(g), n)
				}
			}
		})
	}
}
