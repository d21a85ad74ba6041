package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Under the flash crowd the enforced schemes never underrun and the
// naive scheme does.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	underruns := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 7 {
			continue
		}
		if n, err := strconv.Atoi(f[5]); err == nil {
			underruns[f[0]] = n
		}
	}
	for _, scheme := range []string{"dynamic", "static"} {
		if n, ok := underruns[scheme]; !ok || n != 0 {
			t.Errorf("%s underruns = %d (row found: %v), want 0", scheme, n, ok)
		}
	}
	if n := underruns["naive"]; n <= 0 {
		t.Errorf("naive underruns = %d, want > 0:\n%s", n, out.String())
	}
}
