package cluster

import (
	"testing"

	"repro/internal/leakcheck"
)

// Every goroutine and descriptor of the fleets its tests build must be
// gone once the tests finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
