package engine

import (
	"testing"
	"time"
)

// The nil wake — what every platform but Linux has, and what a failed
// timerfd_create yields — is a complete no-op: arming, stopping and
// closing it neither panic nor ever make its channel fire.
func TestNilShardWakeIsNoOp(t *testing.T) {
	var w *shardWake
	w.arm(time.Microsecond)
	w.stop()
	w.arm(time.Microsecond)
	select {
	case <-w.c():
		t.Fatal("a nil wake fired")
	case <-time.After(5 * time.Millisecond):
	}
	w.close()
}
