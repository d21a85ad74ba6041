package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	vod "repro"
	"repro/internal/engine"
	"repro/internal/serve"
)

// cases returns the tracked cases in snapshot order.
func cases() []benchCase {
	cs := []benchCase{{
		// Cold-clock churn: a fresh clock absorbing a burst of 1000
		// one-shot closures per op, paying the freelist's warm-up every
		// time — the worst case for the pooled design.
		name:  "clock/schedule-run-1000",
		iters: 2_000,
		measure: func(iters int) (uint64, error) {
			return mallocs(func() error {
				for i := 0; i < iters; i++ {
					e := engine.NewVirtualClock()
					for j := 0; j < 1000; j++ {
						e.Schedule(vod.Seconds((j*7919)%1000), func() {})
					}
					e.Run(1000)
				}
				return nil
			})
		},
	}}
	for _, d := range days {
		cs = append(cs, benchCase{name: d.name, iters: 1, measure: d.simulate})
	}
	return append(cs,
		loopbackCase("serve/loopback-1shard", 1, false),
		loopbackCase("serve/loopback-8shards", 8, false),
		// Four titles and a prefix window shorter than a session, so
		// admissions exercise the whole merge mix — cache-only service,
		// batching, piggybacks and fresh leads.
		loopbackCase("serve/loopback-shared", 8, true),
		jitterCompCase(),
	)
}

// day is one end-to-end case: the paper's Section 5 day (one disk, six
// titles, 350 arrivals under the θ = 1 Zipf profile) simulated once.
type day struct {
	name   string
	scheme vod.Scheme
	kind   vod.MethodKind
	// ladder serves every title over a 1.5/1.0/0.5 Mbps ladder with
	// downgrading admission, so the per-rate sizing contexts and the
	// ladder walk sit on the measured path.
	ladder bool
	// adapt adds mid-stream adaptation: the reservoir check on every
	// service start and the up-switch gates on every completion.
	adapt bool
}

// days is the allocator × method grid plus the two ladder days.
var days = []day{
	{name: "sim/day/static-rr", scheme: vod.Static, kind: vod.RoundRobin},
	{name: "sim/day/static-sweep", scheme: vod.Static, kind: vod.Sweep},
	{name: "sim/day/static-gss", scheme: vod.Static, kind: vod.GSS},
	{name: "sim/day/dynamic-rr", scheme: vod.Dynamic, kind: vod.RoundRobin},
	{name: "sim/day/dynamic-sweep", scheme: vod.Dynamic, kind: vod.Sweep},
	{name: "sim/day/dynamic-gss", scheme: vod.Dynamic, kind: vod.GSS},
	{name: "sim/day/multirate-downgrade-rr", scheme: vod.Dynamic, kind: vod.RoundRobin, ladder: true},
	{name: "sim/day/multirate-adapt-rr", scheme: vod.Dynamic, kind: vod.RoundRobin, ladder: true, adapt: true},
}

// simulate builds the day's library and trace, then counts what iters
// simulations of it allocate.
func (d day) simulate(iters int) (uint64, error) {
	spec, cr, _ := vod.PaperEnvironment()
	libCfg := vod.LibraryConfig{Titles: 6, Disks: 1, Spec: spec, PopularityTheta: 0.271}
	var rates []vod.BitRate
	if d.ladder {
		rates = []vod.BitRate{vod.Mbps(1.5), vod.Mbps(1.0), vod.Mbps(0.5)}
		cr = rates[0]
		libCfg.Video = func(id int) vod.Video {
			v := vod.MPEG1Video(id)
			v.Ladder = rates
			return v
		}
	}
	lib, err := vod.NewLibrary(libCfg)
	if err != nil {
		return 0, err
	}
	tr := vod.GenerateWorkload(vod.ZipfDaySchedule(350, 1, vod.Hours(9), vod.Hours(24)), lib, 1)
	if d.ladder {
		for i, r := range tr.Requests {
			tr.Requests[i].Rate = lib.Video(r.Video).Rate
		}
	}
	cfg := vod.SimConfig{
		Scheme: d.scheme, Method: vod.NewMethod(d.kind),
		Spec: spec, CR: cr, Library: lib, Trace: tr,
		Rates: rates, Downgrade: d.ladder,
	}
	if d.adapt {
		cfg.Adapt = &vod.AdaptConfig{}
	}
	return mallocs(func() error {
		for i := 0; i < iters; i++ {
			cfg.Seed = int64(i)
			res, err := vod.Simulate(cfg)
			if err != nil {
				return err
			}
			if res.Served == 0 {
				return errors.New("nothing served")
			}
		}
		return nil
	})
}

// loopbackSessions is the iteration count of every loopback case; each
// operation is one complete viewing.
const loopbackSessions = 160

// loopbackCase counts the live serving path's per-session allocations,
// client included: an in-process server with the given number of disk
// shards, compensating for timer jitter, optionally through the sharing
// front end.
func loopbackCase(name string, disks int, shared bool) benchCase {
	return benchCase{name: name, iters: loopbackSessions, measure: func(iters int) (uint64, error) {
		cfg := serve.Config{Scale: 1200, Disks: disks, Seed: 1, JitterComp: true}
		title := func(int) int { return -1 }
		if shared {
			cfg.Share = true
			cfg.ShareWindow = 2 // engine seconds; sessions run 5, so joins split cache/disk
			title = func(n int) int { return n % 4 }
		}
		m, _, err := runLoopback(cfg, iters, title)
		return m, err
	}}
}

// jitterCompCase runs the 8-shard workload twice, timer jitter
// compensation off and then on, and holds the serving path to the win
// compensation claims: whenever the uncompensated arm sees at least 50
// underruns (below that the machine was quiet and the ratio means
// nothing), compensation must cut them at least 5×. Its allocs/op
// covers both arms, so two sessions per operation.
func jitterCompCase() benchCase {
	return benchCase{name: "serve/loopback-jittercomp", iters: loopbackSessions, measure: func(iters int) (uint64, error) {
		cfg := serve.Config{Scale: 1200, Disks: 8, Seed: 1}
		title := func(int) int { return -1 }
		offMallocs, off, err := runLoopback(cfg, iters, title)
		if err != nil {
			return 0, err
		}
		cfg.JitterComp = true
		onMallocs, on, err := runLoopback(cfg, iters, title)
		if err != nil {
			return 0, err
		}
		if off >= 50 && on*5 > off {
			return 0, fmt.Errorf("compensation cut underruns %d -> %d, less than the required 5x", off, on)
		}
		return offMallocs + onMallocs, nil
	}}
}

// loopbackClients is the number of concurrent persistent viewers.
const loopbackClients = 8

// runLoopback stands up a server on a loopback listener and drives
// sessions viewings through it from persistent concurrent clients. Only
// the viewings are counted: set-up, dialing, one warm session per
// connection (so both sides' pools hold their steady-state population)
// and teardown are not. It returns the allocations and the engine's
// total underrun count.
func runLoopback(cfg serve.Config, sessions int, title func(n int) int) (uint64, int64, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	go srv.Serve(ln)

	clients := make([]*loopbackClient, loopbackClients)
	for i := range clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, 0, err
		}
		defer conn.Close()
		clients[i] = &loopbackClient{conn: conn, r: bufio.NewReader(conn)}
	}

	// each runs body on every client concurrently and returns the first
	// error.
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	each := func(body func(i int, cl *loopbackClient) error) error {
		for i, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := body(i, cl); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}
	if err := each(func(i int, cl *loopbackClient) error { return cl.session(title(i)) }); err != nil {
		return 0, 0, err
	}
	var next atomic.Int64
	m, err := mallocs(func() error {
		return each(func(_ int, cl *loopbackClient) error {
			for n := int(next.Add(1)); n <= sessions; n = int(next.Add(1)) {
				if err := cl.session(title(n)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return 0, 0, err
	}
	return m, srv.Metrics().Snapshot().Totals.Underruns, nil
}

// loopbackClient is one persistent viewer connection. Its session
// method is allocation-free once warm — the command builds in a reused
// buffer, the status line is read in place, the payload is discarded
// through the buffered reader — so the counts measure the serving path,
// not the client.
type loopbackClient struct {
	conn  net.Conn
	r     *bufio.Reader
	cmd   []byte
	frame [4]byte
}

// session runs one complete viewing over the connection: 5 simulated
// seconds of content (937,500 bytes), verified to the byte. A title
// >= 0 is requested explicitly; -1 lets the server assign one.
func (c *loopbackClient) session(title int) error {
	c.cmd = append(c.cmd[:0], "WATCH 5"...)
	if title >= 0 {
		c.cmd = append(c.cmd, ' ')
		c.cmd = strconv.AppendInt(c.cmd, int64(title), 10)
	}
	c.cmd = append(c.cmd, '\n')
	if _, err := c.conn.Write(c.cmd); err != nil {
		return err
	}
	status, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(status, []byte("OK")) {
		return fmt.Errorf("loopback session not admitted: %q", bytes.TrimSpace(status))
	}
	var total int64
	for {
		if _, err := io.ReadFull(c.r, c.frame[:]); err != nil {
			return err
		}
		length := int64(binary.BigEndian.Uint32(c.frame[:]))
		if length == 0 {
			break
		}
		if _, err := c.r.Discard(int(length)); err != nil {
			return err
		}
		total += length
	}
	if total != 937_500 {
		return fmt.Errorf("loopback session delivered %d bytes, want 937500", total)
	}
	return nil
}
