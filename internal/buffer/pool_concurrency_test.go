package buffer

import (
	"sync"
	"testing"

	"repro/internal/si"
)

// The pool is single-owner: in the engine every caller holds the clock
// lock (engine.WallShard.Do or an Observer callback) before touching it.
// This test reproduces that discipline — many goroutines, one mutex, a
// monotone shared clock — and lets the race detector prove the contract
// is sufficient: no torn state, no backward-time panics, books balanced.
func TestPoolSerializedConcurrentCallers(t *testing.T) {
	const (
		workers = 8
		ops     = 200
	)
	p := NewPagedPool(0, 0)
	var (
		mu  sync.Mutex // stands in for the engine clock lock
		now si.Seconds
	)
	tick := func() si.Seconds {
		now += 0.001
		return now
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mu.Lock()
			p.Attach(id, si.Mbps(1.5), tick())
			mu.Unlock()
			for i := 0; i < ops; i++ {
				mu.Lock()
				t := tick()
				if p.BeginFill(id, si.Megabits(5), t) {
					p.CompleteFill(id, tick())
				}
				p.Level(id, now)
				p.Usage(now)
				mu.Unlock()
			}
			mu.Lock()
			p.Detach(id, tick())
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if p.Len() != 0 {
		t.Errorf("Len = %d after all streams detached, want 0", p.Len())
	}
	if got := p.Usage(now); got != 0 {
		t.Errorf("Usage = %v after all streams detached, want 0", got)
	}
	st := p.Stats()
	if st.Streams != 0 {
		t.Errorf("Stats.Streams = %d, want 0", st.Streams)
	}
	// Under mutex contention one worker can wait hundreds of ticks between
	// its fills, so the fill is sized for the worst interleaving: the
	// whole test spans at most workers·(2·ops+2) = 3,216 ticks of 1 ms,
	// which drains 4.82 Mbit at 1.5 Mbps, so one 5 Mbit fill outlasts any
	// gap and buffers never drain between refills.
	if st.Underruns != 0 {
		t.Errorf("Underruns = %d, want 0 under keep-ahead fills", st.Underruns)
	}
	if st.HighWater <= 0 {
		t.Errorf("HighWater = %v, want positive", st.HighWater)
	}
}

// A budgeted pool under the same serialized concurrency must never let
// usage exceed the budget, and rejected fills must reserve nothing.
func TestPoolBudgetHoldsUnderConcurrentFills(t *testing.T) {
	const workers = 6
	budget := si.Megabits(4)
	p := NewPool(budget)
	var (
		mu  sync.Mutex
		now si.Seconds
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mu.Lock()
			now += 0.001
			p.Attach(id, si.Mbps(1.5), now)
			mu.Unlock()
			for i := 0; i < 100; i++ {
				mu.Lock()
				now += 0.001
				if p.BeginFill(id, si.Megabits(1), now) {
					now += 0.001
					p.CompleteFill(id, now)
				}
				if u := p.Usage(now); u > budget {
					t.Errorf("Usage %v exceeds budget %v", u, budget)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if st := p.Stats(); st.HighWater > budget {
		t.Errorf("HighWater %v exceeds budget %v", st.HighWater, budget)
	}
}
