package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/si"
)

// The lag estimator attacks instantly and decays slowly: a spike is the
// failure being prevented, so it must raise the estimate at once, while
// recovery back toward a quiet machine's lag takes many observations.
func TestNoteLagAttackDecay(t *testing.T) {
	c := NewWallClock(100)
	defer c.Stop()
	s := c.Shard(0)

	s.noteLag(5 * time.Millisecond)
	if got := s.WakeupLag(); got != 5*time.Millisecond {
		t.Fatalf("after 5ms spike: WakeupLag = %v, want instant attack to 5ms", got)
	}
	// A bigger spike overrides immediately.
	s.noteLag(8 * time.Millisecond)
	if got := s.WakeupLag(); got != 8*time.Millisecond {
		t.Fatalf("after 8ms spike: WakeupLag = %v, want 8ms", got)
	}
	// One small observation barely moves it (1/64 of the distance)...
	s.noteLag(0)
	want := 8 * time.Millisecond
	want -= want >> 6
	if got := s.WakeupLag(); got != want {
		t.Fatalf("after one quiet observation: WakeupLag = %v, want %v", got, want)
	}
	// ...but a few hundred drain it to (near) zero.
	for i := 0; i < 1500; i++ {
		s.noteLag(0)
	}
	if got := s.WakeupLag(); got > 100*time.Microsecond {
		t.Fatalf("after 1500 quiet observations: WakeupLag = %v, want near zero", got)
	}
	// Negative lag (fired early) is floored at zero, not credited.
	s.noteLag(time.Millisecond)
	s.noteLag(-time.Second)
	if got := s.WakeupLag(); got < 0 || got > time.Millisecond {
		t.Fatalf("after early fire: WakeupLag = %v, want within [0, 1ms]", got)
	}
}

// Compensation is twice the lag estimate clamped to the configured
// bound, and exactly zero while disarmed regardless of observed lag.
func TestCompensationGuardBandAndClamp(t *testing.T) {
	c := NewWallClock(100)
	defer c.Stop()
	s := c.Shard(0)
	s.noteLag(2 * time.Millisecond)

	if got := s.Compensation(); got != 0 {
		t.Fatalf("disarmed: Compensation = %v, want 0", got)
	}
	c.SetJitterComp(10 * time.Millisecond)
	if got := s.Compensation(); got != 4*time.Millisecond {
		t.Fatalf("armed, 2ms lag: Compensation = %v, want the 2x guard band (4ms)", got)
	}
	c.SetJitterComp(3 * time.Millisecond)
	if got := s.Compensation(); got != 3*time.Millisecond {
		t.Fatalf("armed, 3ms clamp: Compensation = %v, want the clamp", got)
	}
	c.SetJitterComp(0)
	if got := s.Compensation(); got != 0 {
		t.Fatalf("disarmed again: Compensation = %v, want 0", got)
	}
}

// tickCompensated floors to the tick below the backed-off instant
// — the residual quantization error is early, where tickAt's is late —
// and never aims into negative time.
func TestTickCompensatedFloor(t *testing.T) {
	c := NewWallClockTick(1, 10*time.Millisecond) // 1 tick = 10ms = 0.01 engine-s
	defer c.Stop()

	// 95ms uncompensated: tickAt rounds up to tick 10, tickCompensated
	// with zero comp floors to tick 9.
	at := si.Seconds(0.095)
	if got := c.tickAt(at); got != 10 {
		t.Fatalf("tickAt(95ms) = %d, want 10 (ceil)", got)
	}
	if got := c.tickCompensated(at, 0); got != 9 {
		t.Fatalf("tickCompensated(95ms, 0) = %d, want 9 (floor)", got)
	}
	// Backing off 20ms lands two ticks earlier: floor(75ms/10ms) = 7.
	if got := c.tickCompensated(at, 20*time.Millisecond); got != 7 {
		t.Fatalf("tickCompensated(95ms, 20ms) = %d, want 7", got)
	}
	// A compensation larger than the instant clamps to tick 0.
	if got := c.tickCompensated(at, time.Second); got != 0 {
		t.Fatalf("tickCompensated(95ms, 1s) = %d, want 0", got)
	}
	if got := c.tickCompensated(-1, 0); got != 0 {
		t.Fatalf("tickCompensated(-1s, 0) = %d, want 0", got)
	}
}

// An armed clock still fires every timer — compensation shifts aim
// points, it must never lose or deadlock a timer — and same-tick FIFO
// order survives the shifted aims.
func TestWallShardFiresWithCompensationArmed(t *testing.T) {
	c := NewWallClockTick(1000, 100*time.Microsecond)
	defer c.Stop()
	c.SetJitterComp(5 * time.Millisecond)
	s := c.Shard(0)
	// Seed a lag estimate so the aim actually backs off.
	s.noteLag(2 * time.Millisecond)

	const n = 64
	var mu sync.Mutex
	var fired []int
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		// Spread over ~20ms wall (1000x scale): some aims fall in the
		// past (clamped to next tick), some in the future.
		s.Schedule(si.Seconds(float64(i)*0.3), func() {
			mu.Lock()
			fired = append(fired, i)
			if len(fired) == n {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("timers lost with compensation armed: %d of %d fired", len(fired), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < n; i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("timers fired out of order at %d: %v", i, fired[:i+1])
		}
	}
	if got := s.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after all fired, want 0", got)
	}
}
