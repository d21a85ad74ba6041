package serve

import (
	"testing"

	"repro/internal/leakcheck"
)

// Every goroutine and descriptor of the servers' listeners, sessions and
// wall clocks must be gone once the tests finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
