package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// A generated trace file reads back through -stats with its request count.
func TestRunRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.csv")
	var out, errs strings.Builder
	if code := run([]string{"-arrivals", "50", "-hours", "1", "-out", path}, &out, &errs); code != 0 {
		t.Fatalf("generate exited %d\nstderr: %s", code, errs.String())
	}
	var n int
	if _, err := fmt.Sscanf(errs.String(), "%d requests written", &n); err != nil || n == 0 {
		t.Fatalf("generate reported %q", errs.String())
	}
	out.Reset()
	errs.Reset()
	if code := run([]string{"-stats", path}, &out, &errs); code != 0 {
		t.Fatalf("-stats exited %d\nstderr: %s", code, errs.String())
	}
	if want := fmt.Sprintf("requests:      %d\n", n); !strings.HasPrefix(out.String(), want) {
		t.Errorf("-stats output does not start with %q\n%s", want, out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errs); code != 2 {
		t.Errorf("run with an unknown flag exited %d, want 2", code)
	}
}
