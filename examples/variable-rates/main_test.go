package main

import (
	"bytes"
	"strings"
	"testing"
)

// The 0.5 Mbps unit rate gives the 120 Mbps disk 239 unit slots.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "239 unit slots") {
		t.Errorf("output lacks %q:\n%s", "239 unit slots", out.String())
	}
}
