package main

import (
	"strings"
	"testing"
)

// The full sizing table prints one row per load level up to N = 79.
func TestRunTable(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-table"}, &out, &errs); code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "\n  79  ") {
		t.Errorf("table lacks the n = 79 row\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errs); code != 2 {
		t.Errorf("run with an unknown flag exited %d, want 2", code)
	}
}
