//go:build linux

package engine

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// shardWake is a shard driver's precise wake-up: a one-shot timerfd on
// CLOCK_MONOTONIC, read by a small goroutine that parks in the netpoller
// and posts each expiry to a 1-slot channel. The runtime rounds every
// timer wait under a millisecond up to a millisecond when it sleeps in
// the netpoller (an idle process), so a plain time.Timer cannot wake a
// 100 µs wheel on time; the kernel timer can, and its expiry makes the
// fd readable, which the netpoller reports within microseconds.
//
// A nil *shardWake is valid and does nothing: c never fires, so the
// driver falls back to its time.Timer alone. Methods other than c are
// called only by the owning shard's driver goroutine.
type shardWake struct {
	f      *os.File
	fd     uintptr // f's descriptor; f.Fd() would put it in blocking mode
	ch     chan struct{}
	exited chan struct{} // closed when the reader goroutine returns
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// newShardWake creates and starts a wake, or returns nil when the
// kernel refuses a timerfd (descriptor limit, seccomp filter).
// TFD_NONBLOCK and TFD_CLOEXEC equal O_NONBLOCK and O_CLOEXEC by
// definition; the non-blocking flag is what makes os.NewFile register
// the descriptor with the netpoller.
func newShardWake() *shardWake {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	w := &shardWake{
		f:      os.NewFile(fd, "timerfd"),
		fd:     fd,
		ch:     make(chan struct{}, 1),
		exited: make(chan struct{}),
	}
	go w.read()
	return w
}

// read forwards each expiry to ch until the file is closed. Any read
// error ends it: the wake then simply stops firing.
func (w *shardWake) read() {
	defer close(w.exited)
	var n [8]byte // the expiry count; one post covers any number
	for {
		if _, err := w.f.Read(n[:]); err != nil {
			return
		}
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// c is the channel an expiry posts to (nil, which never fires, on a
// nil wake).
func (w *shardWake) c() <-chan struct{} {
	if w == nil {
		return nil
	}
	return w.ch
}

// arm sets the timer to expire once, d from now (d > 0).
func (w *shardWake) arm(d time.Duration) {
	if w == nil {
		return
	}
	w.set(syscall.NsecToTimespec(int64(d)))
}

// stop disarms the timer and drops an expiry already posted, so a
// wake-up for an abandoned wait cannot cut the next one short.
func (w *shardWake) stop() {
	if w == nil {
		return
	}
	w.set(syscall.Timespec{})
	select {
	case <-w.ch:
	default:
	}
}

// set arms (value > 0) or disarms (value 0) the timer; re-setting also
// clears any expiry the reader has not consumed yet. A failed call only
// leaves the driver's time.Timer to wake it, so its error is dropped.
func (w *shardWake) set(value syscall.Timespec) {
	spec := itimerspec{value: value}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// close releases the descriptor and returns once the reader goroutine,
// whose pending Read the close ends, has exited.
func (w *shardWake) close() {
	if w == nil {
		return
	}
	w.f.Close()
	<-w.exited
}
