package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// The live-loopback workload: an in-process serve.Server on a loopback
// listener, driven closed-loop by liveClients persistent connections —
// each sends its next WATCH only after the previous viewing's end frame.
// Loopback, not a real link: no propagation delay, no loss.
const (
	liveClients  = 2 // one per core of the reference machine
	liveTitles   = 12
	sessionBytes = 937_500 // WATCH 5 at 1.5 Mbps
)

// liveConfig compresses time 4800-fold so pacing drops under the
// jitter-compensated wheel's 100 µs tick: the process is then CPU-bound
// and sessions/s measures the serving path, not the model's timers.
var liveConfig = serve.Config{Scale: 4800, Disks: 2, Seed: 1, JitterComp: true}

// sessionTimes are one viewing's client-side boundaries, in nanoseconds
// since the run's base: WATCH written, OK line read, first frame header
// read, end frame read.
type sessionTimes struct{ watch, ok, first, end int64 }

type liveClient struct {
	conn net.Conn
	r    *bufio.Reader
	rng  *rand.Rand
	cmd  []byte
	hdr  [4]byte
	base time.Time

	attempted, failed, busy int
	frames                  int64
	firstByte               []float64      // seconds, one per admitted session
	times                   []sessionTimes // traced runs only
}

// clientRNG seeds connection i's title stream from the run's seed.
func clientRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*liveClients + int64(i)))
}

// session runs one complete viewing of the title over the persistent
// connection and verifies the delivered byte count. An I/O error is
// returned and ends the run; a BUSY reply or a short delivery counts as
// a failed session.
func (c *liveClient) session(title int, traced bool) error {
	c.cmd = append(c.cmd[:0], "WATCH 5 "...)
	c.cmd = strconv.AppendInt(c.cmd, int64(title), 10)
	c.cmd = append(c.cmd, '\n')
	c.attempted++
	start := time.Now()
	if _, err := c.conn.Write(c.cmd); err != nil {
		return err
	}
	status, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	okAt := time.Now()
	if !bytes.HasPrefix(status, []byte("OK")) {
		c.failed++
		if bytes.HasPrefix(status, []byte("BUSY")) {
			c.busy++
			return nil
		}
		return fmt.Errorf("live-loopback: unexpected reply %q", bytes.TrimSpace(status))
	}
	var total int64
	var firstAt time.Time
	for first := true; ; first = false {
		if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
			return err
		}
		if first {
			firstAt = time.Now()
		}
		n := int64(binary.BigEndian.Uint32(c.hdr[:]))
		if n == 0 {
			break
		}
		if _, err := c.r.Discard(int(n)); err != nil {
			return err
		}
		total += n
		c.frames++
	}
	if total != sessionBytes {
		c.failed++
	}
	c.firstByte = append(c.firstByte, firstAt.Sub(start).Seconds())
	if traced {
		c.times = append(c.times, sessionTimes{
			watch: int64(start.Sub(c.base)), ok: int64(okAt.Sub(c.base)),
			first: int64(firstAt.Sub(c.base)), end: int64(time.Since(c.base)),
		})
	}
	return nil
}

type liveWorkload struct {
	srv     *serve.Server
	ln      net.Listener
	served  chan struct{}
	clients []*liveClient
}

// setup starts the server, dials the persistent connections and runs one
// warm session on each, so both sides' pools hold their steady-state
// population before timing starts. Connection i warms up on title i —
// one title per disk — whatever the seed, so set-up time does not depend
// on it.
func (w *liveWorkload) setup(seed int64) error {
	srv, err := serve.New(liveConfig)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return err
	}
	w.srv, w.ln, w.served, w.clients = srv, ln, make(chan struct{}), nil
	go func() {
		srv.Serve(ln)
		close(w.served)
	}()
	for i := 0; i < liveClients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			w.teardown()
			return err
		}
		c := &liveClient{conn: conn, r: bufio.NewReader(conn), rng: clientRNG(seed, i), firstByte: make([]float64, 0, 1<<18)}
		w.clients = append(w.clients, c)
		if err := c.session(i, false); err != nil {
			w.teardown()
			return err
		}
		if c.failed > 0 {
			w.teardown()
			return fmt.Errorf("live-loopback: warm session failed")
		}
	}
	return nil
}

// teardown closes the connections and the listener, stops the server's
// clock and waits for the accept loop to end.
func (w *liveWorkload) teardown() {
	for _, c := range w.clients {
		c.conn.Close()
	}
	w.ln.Close()
	<-w.served
	w.srv.Stop()
}

// window is what one timed stretch of closed-loop sessions measured.
type window struct {
	cost
	sessions, failed, busy int
	frames                 int64
	firstByte              []float64 // ascending seconds
	times                  []sessionTimes
}

// drive runs every client closed-loop for the given time.
func (w *liveWorkload) drive(seconds float64, traced bool) (window, error) {
	base := time.Now()
	for _, c := range w.clients {
		c.attempted, c.failed, c.busy, c.frames = 0, 0, 0, 0
		c.firstByte, c.times, c.base = c.firstByte[:0], c.times[:0], base
	}
	deadline := base.Add(time.Duration(seconds * float64(time.Second)))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	m := startMeter()
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *liveClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if errs[i] = c.session(c.rng.Intn(liveTitles), traced); errs[i] != nil {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	win := window{cost: m.stop()}
	for i, c := range w.clients {
		if errs[i] != nil {
			return win, errs[i]
		}
		win.sessions += c.attempted
		win.failed += c.failed
		win.busy += c.busy
		win.frames += c.frames
		win.firstByte = append(win.firstByte, c.firstByte...)
		win.times = append(win.times, c.times...)
	}
	sort.Float64s(win.firstByte)
	return win, nil
}

func (w *liveWorkload) untraced(seed int64, seconds float64) (*result, error) {
	// A set-up waits on the model's timers for its warm sessions, so it
	// swings by half from one to the next; timeSetup takes the median of
	// some forty. The last one's server is the one measured.
	setup, err := timeSetup(func() error {
		if w.srv != nil {
			w.teardown()
		}
		return w.setup(seed)
	})
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	win, err := w.drive(seconds, false)
	if err != nil {
		return nil, err
	}
	ops := float64(win.sessions - win.failed)
	one := func(v float64) stats { return stats{Median: v, Min: v, Max: v, N: 1} }
	fb := win.firstByte
	return &result{
		Workload: "live-loopback", Correct: win.failed == 0 && win.sessions > 0,
		Attempted: win.sessions, Failed: win.failed, Passes: 1, Seconds: win.Wall,
		EndToEnd: map[string]stats{
			"setup_s":       setup,
			"throughput":    one(ops / win.Wall),
			"wait_ms":       {Median: percentile(fb, 0.5) * 1e3, Min: fb[0] * 1e3, Max: fb[len(fb)-1] * 1e3, N: len(fb)},
			"cpu_us_per_op": one(win.CPU * 1e6 / ops),
		},
	}, nil
}

// traced splits the time budget: half with the clients recording only
// what the end-to-end metrics need, half recording every session's
// watch → ok → first_frame → end chain, bracketed by two server stats
// reads. The ratio of the two halves' time per session is the tracing
// overhead.
func (w *liveWorkload) traced(seed int64, seconds float64) (*result, error) {
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	defer w.teardown()
	plain, err := w.drive(seconds/2, false)
	if err != nil {
		return nil, err
	}
	before := w.srv.Stats()
	win, err := w.drive(seconds/2, true)
	if err != nil {
		return nil, err
	}
	after := w.srv.Stats()

	res := &result{
		Workload: "live-loopback", Correct: win.failed == 0 && plain.failed == 0 && win.sessions > 0,
		Attempted: win.sessions, Failed: win.failed, Passes: 1, Seconds: win.Wall,
	}
	var admit, wall []float64
	tf := &traceFile{Workload: "live-loopback"}
	for i, s := range win.times {
		admit = append(admit, float64(s.ok-s.watch)/1e3)
		wall = append(wall, float64(s.end-s.watch)/1e6)
		id := 4*i + 1
		tf.Spans = append(tf.Spans,
			span{ID: id, Name: "serve.session", Req: i + 1, Start: s.watch, End: s.end},
			span{ID: id + 1, Parent: id, Name: "serve.admit", Req: i + 1, Start: s.watch, End: s.ok},
			span{ID: id + 2, Parent: id, Name: "serve.first_frame", Req: i + 1, Start: s.ok, End: s.first},
			span{ID: id + 3, Parent: id, Name: "serve.delivery", Req: i + 1, Start: s.first, End: s.end})
	}
	sort.Float64s(admit)
	sort.Float64s(wall)
	ok := float64(win.sessions - win.failed)
	var lag time.Duration
	for i := 0; i < w.srv.Clock().Shards(); i++ {
		lag = max(lag, w.srv.Clock().Shard(i).WakeupLag())
	}
	fb := win.firstByte
	// p99.9 needs ten samples beyond it; a short run falls back to the
	// highest percentile its sample supports.
	tail := min(0.999, tailPercentile(len(fb)))
	res.PerLayer = map[string]float64{
		"serve.first_byte_p99_ms":        percentile(fb, 0.99) * 1e3,
		"serve.first_byte_p999_ms":       percentile(fb, tail) * 1e3,
		"serve.admit_rtt_p50_us":         percentile(admit, 0.5),
		"serve.session_wall_p50_ms":      percentile(wall, 0.5),
		"serve.frames_per_session":       float64(win.frames) / ok,
		"serve.delivery_mb_per_s":        ok * sessionBytes / 1e6 / win.Wall,
		"serve.busy_replies":             float64(win.busy),
		"serve.underruns_per_1k":         float64(after.Totals.Underruns-before.Totals.Underruns) * 1e3 / ok,
		"engine.wallclock.wakeup_lag_us": float64(lag) / 1e3,
		"livemetrics.jitter_comp_ms":     after.Totals.JitterCompMS,
		"process.alloc_b_per_op":         plain.Alloc / float64(plain.sessions),
		"trace.overhead_ratio":           (win.Wall / float64(win.sessions)) / (plain.Wall / float64(plain.sessions)),
	}
	res.notef("first-byte tail percentile p%g over %d sessions", tail*100, len(fb))
	res.trace = tf
	return res, nil
}
