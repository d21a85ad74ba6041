package main

import (
	"strings"
	"testing"
)

// A small day runs end to end and prints the single-run report.
func TestRunSmallDay(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-arrivals", "50", "-hours", "1"}, &out, &errs); code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "underruns:") {
		t.Errorf("report lacks the underruns line\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errs); code != 2 {
		t.Errorf("run with an unknown flag exited %d, want 2", code)
	}
}
