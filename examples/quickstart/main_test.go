package main

import (
	"bytes"
	"strings"
	"testing"
)

// Both schemes serve the light two-hour day without starving a viewer.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"static", "dynamic"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), scheme+" ") && strings.Contains(line, "avg latency") {
				found = true
				if !strings.HasSuffix(line, "underruns 0") {
					t.Errorf("%s starved viewers: %q", scheme, line)
				}
			}
		}
		if !found {
			t.Errorf("no %s row in the output:\n%s", scheme, out.String())
		}
	}
}
