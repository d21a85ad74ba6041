package main

import (
	"testing"

	"repro/internal/leakcheck"
)

// Every goroutine and descriptor of the self-test servers and their
// viewers must be gone once the tests finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
