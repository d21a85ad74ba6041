//go:build !linux

package engine

import "time"

// shardWake is a shard driver's precise wake-up. Only Linux has one (a
// timerfd, see wallwake_linux.go); elsewhere every wake is nil and its
// methods do nothing, so the driver sleeps on its time.Timer alone.
type shardWake struct{}

func newShardWake() *shardWake { return nil }

func (w *shardWake) c() <-chan struct{}  { return nil }
func (w *shardWake) arm(d time.Duration) {}
func (w *shardWake) stop()               {}
func (w *shardWake) close()              {}
