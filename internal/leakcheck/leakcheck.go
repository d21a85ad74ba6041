// Package leakcheck is the TestMain gate of the packages that start
// goroutines or open descriptors — the wall clock's shard drivers and
// timerfd wakes, the live server's listeners and sessions. A test that
// forgets a Stop or a Close leaves them running for the rest of the test
// binary, where they skew every later test's timing and resource counts
// without failing anything; the gate makes that a failure.
package leakcheck

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// grace is how long the tests' goroutines and descriptors get to wind
// down after the last test returns.
const grace = 2 * time.Second

// Main runs the package's tests and exits with their status, or with 1
// when they passed but the goroutine or open-descriptor count does not
// return to its pre-test baseline within a grace period. Use it as the
// package's TestMain.
func Main(m *testing.M) {
	os.Exit(run(m.Run, grace, os.Stderr))
}

// run calls tests between the baseline and the settle check, reporting a
// leak to w.
func run(tests func() int, grace time.Duration, w io.Writer) int {
	// The first timer starts the runtime's netpoller, which holds an
	// epoll descriptor and an eventfd for the life of the process; count
	// from after that, or every package reads as leaking two.
	time.Sleep(time.Millisecond)
	g0, fd0 := runtime.NumGoroutine(), openFDs()
	code := tests()
	if code != 0 || fuzzing() {
		return code
	}
	deadline := time.Now().Add(grace)
	for {
		g, fd := runtime.NumGoroutine(), openFDs()
		if g <= g0 && fd <= fd0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(w, "leakcheck: %v after the tests: goroutines %d -> %d, open descriptors %d -> %d\n", grace, g0, g, fd0, fd)
			pprof.Lookup("goroutine").WriteTo(w, 1)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc/self/fd is unavailable, which leaves only goroutines checked.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// fuzzing reports whether the binary runs a fuzz target (as coordinator
// or as one of its workers, which inherit the flag). The coordinator's
// interrupt handler keeps a goroutine for the life of the process, so
// only plain test runs are gated; they run every seed corpus too.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}
