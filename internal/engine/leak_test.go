package engine

import (
	"testing"

	"repro/internal/leakcheck"
)

// Every goroutine and descriptor of the wall clock's shard drivers and
// timerfd wakes must be gone once the tests finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
