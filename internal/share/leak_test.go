package share

import (
	"testing"

	"repro/internal/leakcheck"
)

// Every goroutine and descriptor of the engines its tests drive must be
// gone once the tests finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
