package main

import (
	"bytes"
	"strings"
	"testing"
)

// At full load (790 viewers on 10 disks) the dynamic scheme needs as much
// memory as the static one: the saving column reads 1.0x.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "790" {
			if f[3] != "1.0x" {
				t.Errorf("790-viewer saving = %s, want 1.0x", f[3])
			}
			return
		}
	}
	t.Errorf("no 790-viewer row in the output:\n%s", out.String())
}
