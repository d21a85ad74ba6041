//go:build linux

package engine

import (
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/si"
)

// An idle process must wake a fine-tick shard on time. The runtime
// rounds every netpoller sleep under a millisecond up to a millisecond,
// so a driver sleeping on a time.Timer alone fires a 300 µs timer about
// 1 ms late in a quiet process; the shard's timerfd wake must land it
// within the 100 µs tick's rounding plus a few tens of microseconds.
func TestWallShardIdleWakeBeatsNetpollFloor(t *testing.T) {
	c := NewWallClockTick(1, 100*time.Microsecond)
	defer c.Stop()
	s := c.Shard(0)
	const n = 50
	ahead := si.Seconds(300e-6)
	fired := make(chan si.Seconds, 1)
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	late := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		at := c.Now() + ahead
		s.Schedule(at, func() { fired <- c.Now() })
		select {
		case got := <-fired:
			late = append(late, (got - at).Duration())
		case <-timeout.C:
			t.Fatalf("timer %d never fired", i)
		}
	}
	slices.Sort(late)
	t.Logf("delay past the requested instant: median %v, max %v", late[n/2], late[n-1])
	if med := late[n/2]; med >= 600*time.Microsecond {
		t.Fatalf("median delay past the requested instant = %v, want < 600µs (all: %v)", med, late)
	}
}

// Stopping a clock releases everything its shards' wakes hold: every
// driver and reader goroutine exits and every timerfd is closed.
func TestWallClockStopReleasesWakes(t *testing.T) {
	g0 := runtime.NumGoroutine()
	// The first pollable descriptor starts the netpoller, which keeps
	// descriptors of its own; count from after that.
	newShardWake().close()
	fd0 := openFDs(t)
	c := NewWallClockTick(1000, 100*time.Microsecond)
	const shards = 4
	done := make(chan struct{}, shards)
	for i := 0; i < shards; i++ {
		c.Shard(i).After(1, func() { done <- struct{}{} })
	}
	for i := 0; i < shards; i++ {
		<-done // every driver is running, so its wake exists
	}
	if fds := openFDs(t); fds < fd0+shards {
		t.Logf("%d shards hold %d new descriptors: timerfds unavailable, wakes are nil", shards, fds-fd0)
	}
	c.Shard(0).After(3600, func() {}) // a driver asleep at Stop
	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, fds := runtime.NumGoroutine(), openFDs(t)
		if g <= g0 && fds <= fd0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Stop: %d goroutines (want <= %d), %d descriptors (want <= %d)", g, g0, fds, fd0)
		}
		time.Sleep(time.Millisecond)
	}
}

func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// A failed timerfd_create degrades to the nil wake, and a shard driven
// with it still fires its timers (on its time.Timer alone).
func TestWallShardWithoutTimerfd(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	// The runtime opens its netpoller's descriptors with the first timer
	// and throws if it cannot; make sure that has happened.
	time.Sleep(time.Microsecond)
	low := lim
	low.Cur = 0 // every new descriptor fails with EMFILE
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Fatalf("restoring the descriptor limit: %v", err)
		}
	}
	defer restore()
	w := newShardWake()
	c := NewWallClockTick(1000, 100*time.Microsecond)
	defer c.Stop()
	fired := make(chan struct{})
	// The driver creates its wake before its first pass, so by the time
	// this fires, it did so under the limit too.
	c.Shard(0).After(1, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Error("a shard without a timerfd never fired")
	}
	restore()
	if w != nil {
		w.close()
		t.Fatal("newShardWake returned a wake with no descriptor available")
	}
}

// The wake itself: an armed timerfd posts once when it expires, and a
// stopped one neither posts nor leaves an expiry behind.
func TestShardWakeArmStop(t *testing.T) {
	w := newShardWake()
	if w == nil {
		t.Skip("no timerfd on this kernel")
	}
	defer w.close()
	for i := 0; i < 3; i++ {
		w.arm(200 * time.Microsecond)
		select {
		case <-w.c():
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: an armed wake never fired", i)
		}
		w.arm(2 * time.Millisecond)
		w.stop()
		select {
		case <-w.c():
			t.Fatalf("round %d: a stopped wake fired", i)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
