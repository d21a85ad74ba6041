package leakcheck

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestRunPassesCleanTests(t *testing.T) {
	var out strings.Builder
	if code := run(func() int {
		go time.Sleep(5 * time.Millisecond)
		return 0 // the goroutine is still running; the grace period covers it
	}, time.Second, &out); code != 0 {
		t.Errorf("exit %d for tests that wind down in time:\n%s", code, out.String())
	}
}

func TestRunKeepsFailingStatus(t *testing.T) {
	var out strings.Builder
	if code := run(func() int { return 3 }, time.Second, &out); code != 3 {
		t.Errorf("exit %d, want the tests' own 3", code)
	}
}

func TestRunCatchesLeakedGoroutine(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var out strings.Builder
	if code := run(func() int {
		go func() { <-stop }()
		return 0
	}, 50*time.Millisecond, &out); code != 1 {
		t.Fatalf("exit %d with a leaked goroutine, want 1", code)
	}
	if !strings.Contains(out.String(), "leakcheck:") || !strings.Contains(out.String(), "goroutine profile") {
		t.Errorf("report lacks the counts or the goroutine dump:\n%s", out.String())
	}
}

func TestRunCatchesLeakedDescriptor(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd")
	}
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var out strings.Builder
	if code := run(func() int {
		var err error
		if f, err = os.Open(os.DevNull); err != nil {
			t.Fatal(err)
		}
		return 0
	}, 50*time.Millisecond, &out); code != 1 {
		t.Fatalf("exit %d with a leaked descriptor, want 1", code)
	}
	if !strings.Contains(out.String(), "open descriptors") {
		t.Errorf("report lacks the descriptor counts:\n%s", out.String())
	}
}
