// Package serve is the live serving path: a miniature VOD server over
// TCP driven by the shared streaming runtime in internal/engine. The
// same admission, allocation, and scheduling code the simulator
// validates paces real deliveries here under a scaled wall clock. The
// server itself owns no buffer-sizing or admission logic — it is a
// driver: it translates TCP connections into engine arrivals and engine
// fill completions into frames on the wire.
//
// The server is sharded per disk, mirroring the paper's per-disk
// service model: every disk runs on its own WallClock shard (its own
// lock, timer heap, and driver goroutine), sessions are routed to the
// shard holding their title by the catalog's placement, and live
// tallies merge across shards through internal/livemetrics' lock-free
// per-disk counters — no global lock anywhere on the serving path.
//
// Protocol: the client sends request lines. "WATCH <seconds>\n"
// requests a viewing; the server answers "OK <id>\n" (admitted) or
// "BUSY\n" (rejected, or deferred past patience) and then streams
// length-prefixed frames ([4-byte big-endian length][bytes]) until the
// requested content has been delivered, ending with a zero-length
// frame — after which the connection is ready for the next request
// line, so a client can run many viewings over one dialed connection.
// "STATS\n" instead dumps one JSON stats line (see Stats) and closes.
// A malformed line draws "ERR bad request\n" and closes. SERVING.md
// documents the protocol and every stats field.
//
// The steady-state serving path allocates nothing: sessions,
// connection state (reader, wire encoder, patience timer), and the
// shard-lock closures they hand the clock are all pooled with
// generation-checked handles (session.go), frames go out as one
// vectored write over a shared read-only payload chunk (wire.go), and
// request lines parse in place (ParseCommandBytes). With
// Config.JitterComp the server additionally runs on a fine-tick wall
// clock that aims its timers early by each shard's observed lag, and
// judges underruns with the model's millisecond grace measured in wall
// time — so at high time compression underruns measure the paper's
// model instead of OS timer latency (see SERVING.md, "Serving-path
// performance").
//
// cmd/vodserver is the thin binary over this package; cmd/bench's
// loopback allocation cases and the repo benchmark's live-loopback
// workload drive it in-process.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	vod "repro"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/livemetrics"
	"repro/internal/share"
	"repro/internal/si"
	"repro/internal/workload"
)

// Patience bounds how long an arrival may sit in the deferral queue
// before the frontend gives up, in engine seconds. It matches the old
// hand-rolled server's 100 one-second retries.
const Patience = si.Seconds(100)

// DefaultJitterCompMax bounds the jitter compensation when
// Config.JitterComp is on and no explicit cap is given: timers may fire
// at most this much wall time early. Ten milliseconds covers the
// scheduler wakeup latency a loaded CFS runner actually exhibits (the
// lag estimate under the loopback benchmark still reads about 2 ms:
// the estimator keeps the recent worst case, so occasional spikes hold
// it up, and the aim doubles it).
const DefaultJitterCompMax = 10 * time.Millisecond

// JitterCompTick is the wall-clock tick a jitter-compensated server
// runs on. The default millisecond tick quantizes every timer hop to
// >= 1 ms — at -scale 1200 that is 1.2 engine seconds per hop,
// which alone swamps the model's 1 ms underrun tolerance no matter how
// well lag is predicted. A 100 µs tick gives the EWMA compensation
// (which aims in whole wall time, then floors to the tick) the
// resolution to land timers at their requested instants. What delivers
// that resolution is each shard's timerfd wake (Linux only, see
// engine.WallClock): the Go runtime rounds an idle process's timer
// waits up to 1 ms, so on a time.Timer alone a 100 µs hop would still
// take a millisecond whenever the server goes idle between fills.
const JitterCompTick = 100 * time.Microsecond

// Config parameterizes a Server. The zero value is not valid; use the
// documented defaults.
type Config struct {
	// Scale is the time compression: simulated seconds per wall second.
	Scale float64

	// Disks is the number of disk shards to serve from (>= 1). The
	// catalog holds 6 titles per disk, as the demo library always has.
	Disks int

	// Seed feeds the disks' rotational-delay streams; loopback tests
	// pin it for reproducible runs. 0 means seed 1.
	Seed int64

	// Cluster, when >= 2, serves from a routed fleet of that many
	// single-server engines (internal/cluster) instead of one: Disks
	// becomes the per-server disk count, the catalog is laid out by the
	// replicated placement policy (the hot quarter gets one copy per
	// server), and each connection is steered by the admission router
	// to a server+disk with a replica and headroom. Mutually exclusive
	// with Share (the sharing layer fronts a single engine).
	Cluster int

	// Share enables the stream-sharing front end (internal/share): hot
	// titles' prefixes are pinned in pool memory and concurrent viewers
	// of one title merge onto one disk stream.
	Share bool

	// ShareWindow is the sharing layer's prefix/join window in engine
	// seconds (0 = the layer's default of one minute).
	ShareWindow si.Seconds

	// ShareCacheBudget caps the pinned prefix memory in bits (0 = pin
	// every title's prefix; negative = pin nothing, batching only).
	ShareCacheBudget si.Bits

	// JitterComp enables the jitter-compensating deadline scheduler:
	// the server runs on a fine-tick (JitterCompTick) wall clock whose
	// shards each track an EWMA of their observed timer lag and aim
	// subsequent timers early by a guard band of twice that (see
	// engine.WallClock.SetJitterComp), and the engines judge underruns
	// with the model's millisecond grace measured in wall time (see
	// serveTolerance). Together these stop OS scheduling latency from
	// masquerading as model underruns at high Scale.
	JitterComp bool

	// JitterCompMax caps how early compensation may fire a timer
	// (0 = DefaultJitterCompMax). Only meaningful with JitterComp.
	JitterCompMax time.Duration

	// Ladder gives every demo title a bitrate ladder (1.5/1.0/0.5 Mbps)
	// and builds the engines' per-rate sizing tables; WATCH sessions
	// request the top rung. The stats line grows the QoE fields
	// (downgrades, starved_streams, starvation_prob, rung_served).
	Ladder bool

	// Downgrade enables downgrading admission: a saturated disk steps an
	// arrival down its title's ladder instead of replying BUSY. Requires
	// Ladder.
	Downgrade bool

	// Adapt enables mid-stream bitrate adaptation (the buffer-occupancy
	// rate map, engine.AdaptConfig): in-service streams shed a rung when
	// their buffer slack falls inside the reservoir and climb back on
	// sustained headroom. The stats line grows the switches_up /
	// switches_down / rung_ms fields. Requires Ladder; mutually
	// exclusive with Share (the sharing layer batches viewers onto one
	// stream, which a per-viewer rate switch would split). Pair with
	// JitterComp at high Scale: the reservoir is judged with the same
	// wall-scaled grace as underruns, and without it OS timer wobble
	// reads as buffer distress and sheds rate spuriously (SERVING.md,
	// tuning notes).
	Adapt bool

	// AdaptReservoir overrides the rate map's down-switch threshold in
	// worst-case service times (0 = the engine default of 0.25). Only
	// meaningful with Adapt.
	AdaptReservoir float64
}

// ServeLadder is the demo catalog's bitrate ladder in ladder mode: the
// paper's MPEG-1 rate on top, with 1.0 and 0.5 Mbps downgrade rungs.
func ServeLadder() []si.BitRate {
	return []si.BitRate{si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)}
}

// Server is the live driver: an engine System under a sharded WallClock
// plus one shard of viewer registry per disk. Nothing here is guarded
// by a global lock — session state lives in the owning shard (guarded
// by that shard's clock lock), IDs come from an atomic counter, and
// tallies live in the metrics collector's per-disk atomic cells.
type Server struct {
	clock *engine.WallClock
	sys   *engine.System
	lib   *catalog.Library
	cr    vod.BitRate
	live  *livemetrics.Collector
	share *share.Layer     // nil unless Config.Share
	fleet *cluster.Cluster // nil unless Config.Cluster >= 2
	rt    *cluster.Router  // the fleet's admission router

	engine.NopObserver // the server observes only what it overrides

	ladder   bool // demo titles carry the ServeLadder bitrate ladder
	nextID   atomic.Int64
	shards   []*shard
	sessions sessionPool // recycled viewer sessions (session.go)
	conns    connPool    // recycled per-connection state (wire.go)
}

// shard is one disk's slice of the driver: the engine disk, the
// wall-clock shard that drives it, and the sessions it serves. The
// sessions map is engine state — read and written only under the
// shard's clock lock (inside clock.Do or inside Observer callbacks,
// which the shard serializes) — and holds generation-checked handles
// into the session pool, so an entry can never outlive its viewer. Two
// shards never touch each other's state, so the serving path has no
// cross-disk contention.
type shard struct {
	disk     *engine.Disk
	sys      *engine.System
	global   int // fleet-global disk index (== disk.ID() single-server)
	clock    *engine.WallShard
	sessions map[int]sessionRef
}

// New builds a server: the paper's disk and rate environment, a demo
// catalog of 6 titles per disk, and the dynamic scheme under a
// Round-Robin scheduler on a sharded wall clock.
func New(cfg Config) (*Server, error) {
	if cfg.Disks < 1 {
		return nil, fmt.Errorf("serve: need at least 1 disk, got %d", cfg.Disks)
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("serve: need a positive time scale, got %g", cfg.Scale)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Cluster >= 2 {
		if cfg.Share {
			return nil, fmt.Errorf("serve: cluster mode and the sharing front end are mutually exclusive")
		}
		return newFleet(cfg)
	}
	if cfg.Cluster < 0 {
		return nil, fmt.Errorf("serve: negative cluster size %d", cfg.Cluster)
	}
	if cfg.Downgrade && !cfg.Ladder {
		return nil, fmt.Errorf("serve: downgrading admission requires the ladder catalog")
	}
	if cfg.Adapt && !cfg.Ladder {
		return nil, fmt.Errorf("serve: mid-stream adaptation requires the ladder catalog")
	}
	if cfg.Adapt && cfg.Share {
		return nil, fmt.Errorf("serve: mid-stream adaptation and the sharing front end are mutually exclusive")
	}
	spec, cr, _ := vod.PaperEnvironment()
	lib, err := catalog.New(catalog.Config{
		Titles: 6 * cfg.Disks, Disks: cfg.Disks, Spec: spec, PopularityTheta: 0.271,
		Video: ladderVideo(cfg),
	})
	if err != nil {
		return nil, err
	}
	srv := &Server{
		clock: newServeClock(cfg),
		lib:   lib,
		cr:    cr,
		live:  livemetrics.NewCollector(cfg.Disks),
	}
	if cfg.Ladder {
		srv.ladder = true
		srv.live.SetRungOf(lib.RungOf)
	}
	sys, err := engine.New(engine.Config{
		Clock:             srv.clock,
		Allocator:         engine.DynamicAllocator{},
		Method:            vod.NewMethod(vod.RoundRobin),
		Spec:              spec,
		CR:                cr,
		Rates:             ladderRates(cfg, lib),
		Downgrade:         cfg.Downgrade,
		Adapt:             adaptConfig(cfg),
		Alpha:             1,
		TLog:              vod.Minutes(40),
		Library:           lib,
		Seed:              cfg.Seed,
		UnderrunTolerance: serveTolerance(cfg),
		// The collector runs first so its counters are stamped before
		// the relay reacts to the same event.
		Observer: engine.Observers{srv.live, srv},
	})
	if err != nil {
		return nil, err
	}
	srv.sys = sys
	if cfg.Share {
		// The layer fronts arrivals and fans fills out per viewer; the
		// server handles viewers through share.Events instead of the
		// engine callbacks (which it then leaves to the layer), and the
		// collector picks up the sharing tallies as share.Observer.
		srv.share, err = share.New(share.Config{
			System:  sys,
			Library: lib,
			CR:      cr,
			Options: share.Options{
				Window:      cfg.ShareWindow,
				CacheBudget: cfg.ShareCacheBudget,
				Events:      srv,
				Observer:    srv.live,
			},
		})
		if err != nil {
			return nil, err
		}
	}
	for d := 0; d < cfg.Disks; d++ {
		srv.shards = append(srv.shards, &shard{
			disk:     sys.Disk(d),
			sys:      sys,
			global:   d,
			clock:    srv.clock.Shard(d),
			sessions: make(map[int]sessionRef),
		})
	}
	return srv, nil
}

// adaptConfig maps the server knobs to the engine's adaptation config:
// nil (adaptation off) unless Config.Adapt.
func adaptConfig(cfg Config) *engine.AdaptConfig {
	if !cfg.Adapt {
		return nil
	}
	return &engine.AdaptConfig{Reservoir: cfg.AdaptReservoir}
}

// ladderVideo returns the demo catalog's title factory: nil (the plain
// MPEG-1 default) unless ladder mode decorates every title with the
// ServeLadder rungs.
func ladderVideo(cfg Config) func(id int) catalog.Video {
	if !cfg.Ladder {
		return nil
	}
	return func(id int) catalog.Video {
		v := catalog.MPEG1Video(id)
		v.Ladder = ServeLadder()
		return v
	}
}

// ladderRates returns the per-stream rate set the engines must size for:
// nil (uniform mode) unless ladder mode, where it is the library's rung
// union.
func ladderRates(cfg Config, lib *catalog.Library) []si.BitRate {
	if !cfg.Ladder {
		return nil
	}
	return lib.Rates()
}

// newServeClock builds the server's wall clock per Config: the default
// millisecond tick, or — with JitterComp on — the fine JitterCompTick
// with lag compensation armed. The two come as a pair: without
// compensation a fine tick still fires late (OS wakeup lag spans many
// ticks), and without a fine tick compensation has nothing to aim with
// (every hop rounds up to a full coarse tick anyway).
func newServeClock(cfg Config) *engine.WallClock {
	if !cfg.JitterComp {
		return engine.NewWallClock(cfg.Scale)
	}
	clock := engine.NewWallClockTick(cfg.Scale, JitterCompTick)
	max := cfg.JitterCompMax
	if max <= 0 {
		max = DefaultJitterCompMax
	}
	clock.SetJitterComp(max)
	return clock
}

// serveTolerance is the engines' underrun grace per Config. The model
// judges a refill "hand-to-mouth, not starvation" when it lands within
// a millisecond of the buffer's zero crossing — a viewer-imperceptible
// slip. With JitterComp on, the serving path keeps that judgment in the
// viewer's (wall) time frame under compression: the grace is the model
// millisecond times Scale, i.e. still one wall millisecond. Without the
// flag the engine default stands — one *engine* millisecond, which at
// -scale 1200 demands sub-microsecond wall precision and so charges
// every OS scheduling wobble to the paper's model (the PR 7 behavior,
// kept as the uncompensated baseline).
func serveTolerance(cfg Config) si.Seconds {
	if !cfg.JitterComp {
		return 0
	}
	return buffer.UnderrunTolerance * si.Seconds(cfg.Scale)
}

// newFleet builds the cluster-mode server: Config.Cluster single-server
// engines of Config.Disks disks each, composed by internal/cluster over
// one globally-sharded wall clock. The catalog is laid out by the
// replicated policy — the hottest quarter gets one copy per server, the
// tail a failover twin, spread across servers so the router's steering
// has somewhere to go — and is sized for that replication: a demo disk
// holds 6 copies of the 1.35 GB title, so the title count targets ~4.5
// copies per disk, leaving the placement policy packing slack.
func newFleet(cfg Config) (*Server, error) {
	spec, cr, _ := vod.PaperEnvironment()
	servers, disksPer := cfg.Cluster, cfg.Disks
	disks := servers * disksPer
	cold := min(2, servers)
	copiesPerTitle := float64(servers+3*cold) / 4 // hot quarter × servers, rest × cold
	titles := int(4.5 * float64(disks) / copiesPerTitle)
	srv := &Server{
		clock:  newServeClock(cfg),
		cr:     cr,
		live:   livemetrics.NewCollector(disks),
		ladder: cfg.Ladder,
	}
	var rates []si.BitRate
	if cfg.Ladder {
		rates = ServeLadder()
	}
	fleet, err := cluster.New(cluster.Config{
		Servers:         servers,
		DisksPerServer:  disksPer,
		Titles:          titles,
		Video:           ladderVideo(cfg),
		PopularityTheta: 0.271,
		Policy: catalog.Replicated{
			Base:       catalog.LeastLoaded{},
			HotTitles:  titles / 4,
			Copies:     servers,
			ColdCopies: cold,
			GroupSize:  disksPer,
		},
		Engine: engine.Config{
			Clock:             srv.clock,
			Allocator:         engine.DynamicAllocator{},
			Method:            vod.NewMethod(vod.RoundRobin),
			Spec:              spec,
			CR:                cr,
			Rates:             rates,
			Downgrade:         cfg.Downgrade,
			Adapt:             adaptConfig(cfg),
			Alpha:             1,
			TLog:              vod.Minutes(40),
			Seed:              cfg.Seed,
			UnderrunTolerance: serveTolerance(cfg),
			// Live connections arrive as fast as clients dial: the
			// ramp-hardened enforcement variants keep the sizing
			// guarantee honest under that churn (see internal/scale).
			ChurnSafeAdmission:    true,
			DeadlineAwareBubbleUp: true,
			RampAwarePlanning:     true,
		},
		// The collector runs first so its counters are stamped before
		// the relay reacts to the same event; both see fleet-global
		// disk indices.
		Observer: func(s int) engine.Observer {
			return offsetObserver{o: engine.Observers{srv.live, srv}, off: s * disksPer}
		},
	})
	if err != nil {
		return nil, err
	}
	srv.fleet = fleet
	srv.rt = fleet.Router()
	srv.lib = fleet.Library()
	if cfg.Ladder {
		srv.live.SetRungOf(srv.lib.RungOf)
	}
	for g := 0; g < disks; g++ {
		srv.shards = append(srv.shards, &shard{
			disk:     fleet.System(g / disksPer).Disk(g % disksPer),
			sys:      fleet.System(g / disksPer),
			global:   g,
			clock:    srv.clock.Shard(g),
			sessions: make(map[int]sessionRef),
		})
	}
	return srv, nil
}

// offsetObserver maps one fleet server's engine callbacks (server-local
// disk indices) onto the fleet-global disk numbering the serving path
// and the metrics collector are indexed by.
type offsetObserver struct {
	o   engine.Observer
	off int
}

func (r offsetObserver) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	r.o.OnAdmit(r.off+disk, st, now)
}
func (r offsetObserver) OnDefer(disk int, now si.Seconds) { r.o.OnDefer(r.off+disk, now) }
func (r offsetObserver) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	r.o.OnReject(r.off+disk, req, reason, now)
}
func (r offsetObserver) OnFill(disk int, st *engine.Stream, start, dur si.Seconds, fill si.Bits, deadline si.Seconds) {
	r.o.OnFill(r.off+disk, st, start, dur, fill, deadline)
}
func (r offsetObserver) OnFillComplete(disk int, st *engine.Stream, fill si.Bits, now si.Seconds) {
	r.o.OnFillComplete(r.off+disk, st, fill, now)
}
func (r offsetObserver) OnStart(disk int, st *engine.Stream, now si.Seconds) {
	r.o.OnStart(r.off+disk, st, now)
}
func (r offsetObserver) OnStall(disk int, now si.Seconds) { r.o.OnStall(r.off+disk, now) }
func (r offsetObserver) OnEstimate(disk int, kc int, size si.Bits, now si.Seconds) {
	r.o.OnEstimate(r.off+disk, kc, size, now)
}
func (r offsetObserver) OnEstimateResolved(disk int, hit bool, now si.Seconds) {
	r.o.OnEstimateResolved(r.off+disk, hit, now)
}
func (r offsetObserver) OnUnderrun(disk int, id int, now, gap si.Seconds) {
	r.o.OnUnderrun(r.off+disk, id, now, gap)
}
func (r offsetObserver) OnDowngrade(disk int, req workload.Request, from, to si.BitRate, now si.Seconds) {
	r.o.OnDowngrade(r.off+disk, req, from, to, now)
}
func (r offsetObserver) OnRateSwitch(disk int, st *engine.Stream, from, to si.BitRate, now si.Seconds) {
	r.o.OnRateSwitch(r.off+disk, st, from, to, now)
}
func (r offsetObserver) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	r.o.OnDepart(r.off+disk, st, now)
}

// Clock exposes the server's wall clock (for time-scale math in
// drivers and tests).
func (srv *Server) Clock() *engine.WallClock { return srv.clock }

// CR reports the streams' consumption rate.
func (srv *Server) CR() vod.BitRate { return srv.cr }

// Metrics exposes the live collector; its Snapshot is the stats dump.
func (srv *Server) Metrics() *livemetrics.Collector { return srv.live }

// Stop halts the wall clock's shard drivers. The server must not be
// serving connections when stopped.
func (srv *Server) Stop() { srv.clock.Stop() }

// OnAdmit resolves the viewer's admission wait. Shard lock held. Under
// sharing, engine streams are shared and the layer's ViewerAdmitted is
// the per-viewer event instead. (A missed map lookup yields the zero
// sessionRef, whose methods no-op — likewise below.)
func (srv *Server) OnAdmit(disk int, st *engine.Stream, now si.Seconds) {
	if srv.share != nil {
		return
	}
	srv.shards[disk].sessions[st.ID()].decide(true)
}

// OnReject resolves the viewer's admission wait negatively. Shard lock
// held.
func (srv *Server) OnReject(disk int, req workload.Request, reason engine.RejectReason, now si.Seconds) {
	if srv.share != nil {
		return
	}
	srv.shards[disk].sessions[req.ID].decide(false)
}

// OnFillComplete ships a landed fill to the viewer: the frame carries
// the integral bytes newly available, by cumulative flooring so the
// total delivered equals the content length exactly. Shard lock held.
func (srv *Server) OnFillComplete(disk int, st *engine.Stream, fill si.Bits, now si.Seconds) {
	if srv.share != nil {
		return
	}
	complete := st.Delivered() >= st.Required()
	total := int64(st.Delivered().Bytes())
	if complete {
		total = int64(st.Required().Bytes())
	}
	srv.shards[disk].sessions[st.ID()].deliver(total, complete)
}

// OnDepart finishes the viewer's stream. Under a wall clock, fill
// timers accumulate jitter while the single departure timer does not,
// so a departing stream may still owe a tail of content; flush it here
// so the client always receives exactly the requested length. Shard
// lock held.
func (srv *Server) OnDepart(disk int, st *engine.Stream, now si.Seconds) {
	if srv.share != nil {
		return
	}
	srv.shards[disk].sessions[st.ID()].deliver(int64(st.Required().Bytes()), true)
}

// ViewerAdmitted resolves a sharing viewer's admission wait
// (share.Events). Shard lock held.
func (srv *Server) ViewerAdmitted(v *share.Viewer, now si.Seconds) {
	srv.shards[v.Disk()].sessions[v.ID()].decide(true)
}

// ViewerRejected resolves a sharing viewer's admission wait negatively
// (share.Events). Shard lock held.
func (srv *Server) ViewerRejected(v *share.Viewer, now si.Seconds) {
	srv.shards[v.Disk()].sessions[v.ID()].decide(false)
}

// ViewerData ships a sharing viewer's delivery growth, with the same
// cumulative flooring as the unshared fill path (share.Events). Shard
// lock held.
func (srv *Server) ViewerData(v *share.Viewer, total si.Bits, now si.Seconds) {
	t := int64(total.Bytes())
	if total >= v.Required() {
		t = int64(v.Required().Bytes())
	}
	srv.shards[v.Disk()].sessions[v.ID()].deliver(t, false)
}

// ViewerDone closes a sharing viewer's delivery, flushing any tail so
// the client always receives exactly the requested length
// (share.Events). Shard lock held.
func (srv *Server) ViewerDone(v *share.Viewer, now si.Seconds) {
	srv.shards[v.Disk()].sessions[v.ID()].deliver(int64(v.Required().Bytes()), true)
}

// Serve accepts and handles connections until the listener closes.
func (srv *Server) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go srv.handle(conn)
	}
}

// handle runs one connection's command loop: each WATCH is one viewing
// relayed to completion, after which the next request line is read —
// clients amortize the dial (and the server its pooled state) over as
// many viewings as they like. STATS and malformed lines end the
// connection; so does any write error, since a peer that stopped
// reading has no more use for the session.
func (srv *Server) handle(conn net.Conn) {
	defer conn.Close()
	c := srv.conns.acquire(conn)
	defer srv.conns.release(c)
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return // EOF (client done), dead peer, or an absurdly long line
		}
		cmd, err := ParseCommandBytes(line)
		if err != nil {
			c.w.reply(replyErr)
			return
		}
		if cmd.Kind == CmdStats {
			json.NewEncoder(conn).Encode(srv.Stats())
			return
		}
		if !srv.watch(c, cmd) {
			return
		}
	}
}

// watch runs one viewing on the connection: route to a shard, feed the
// engine an arrival, await its admission decision, then relay completed
// fills as frames. It reports whether the connection is healthy for
// another command. The whole path reuses pooled state — the session,
// its clock.Do closures, the wire encoder, the patience timer — so a
// steady-state viewing allocates nothing.
func (srv *Server) watch(c *connState, cmd Command) bool {
	// Route the session to the disk shard holding its title: IDs come
	// from the global atomic counter, everything else happens on the
	// owning shard under its own lock. A client that names a title gets
	// it (modulo the catalog — that is what lets loopback drivers herd
	// viewers onto hot titles); one that does not is spread round-robin.
	id := int(srv.nextID.Add(1))
	video := id % srv.lib.Len()
	if cmd.Title >= 0 {
		video = cmd.Title % srv.lib.Len()
	}
	// In cluster mode the admission router picks the server+disk (a
	// replica with committed headroom, primary first); single-server,
	// the catalog's placement names the one shard holding the title.
	var sh *shard
	if srv.fleet != nil {
		t, ok := srv.rt.Route(video)
		if !ok {
			return c.w.reply(replyBusy) == nil // every replica at the knee cap
		}
		sh = srv.shards[t.Global]
	} else {
		sh = srv.shards[srv.lib.Placement(video).Disk]
	}
	sess := srv.sessions.acquire()
	sess.srv, sess.sh = srv, sh
	sess.id, sess.video, sess.viewing = id, video, si.Seconds(cmd.Seconds)
	sess.rate = 0
	if srv.ladder {
		// Viewers ask for full quality; downgrading admission may step
		// the delivered rung below it.
		sess.rate = srv.lib.Video(video).Rate
	}
	sh.clock.Do(sess.submitFn)
	defer func() {
		// Withdraw/unregister (no-ops once delivery completed), then
		// recycle: after detachFn no observer can reach the session, and
		// release's generation bump retires any handle still out there.
		sh.clock.Do(sess.detachFn)
		srv.sessions.release(sess)
	}()

	// Await the engine's admission decision with bounded patience:
	// Fig. 5 defers violating arrivals; a real frontend gives up
	// eventually. The pooled timer is parked (stopped and drained)
	// outside this window.
	admitted := false
	c.patience.Reset(srv.clock.WallDuration(Patience))
	select {
	case admitted = <-sess.decided:
		if !c.patience.Stop() {
			<-c.patience.C
		}
	case <-c.patience.C:
		// Under the shard lock, take a decision that raced the timer or
		// withdraw from the deferral queue.
		sh.clock.Do(sess.timeoutFn)
		admitted = sess.lateDecision
	}
	if !admitted {
		return c.w.reply(replyBusy) == nil
	}
	if c.w.ok(id) != nil {
		return false
	}

	// Relay loop: ship each completed fill as one vectored frame. Pacing
	// comes from the engine — fills land when its scheduler runs them on
	// the scaled wall clock — so delivery never runs ahead of the
	// modelled buffer.
	for {
		sess.mu.Lock()
		for len(sess.pending) == 0 && !sess.done {
			sess.mu.Unlock()
			<-sess.notify
			sess.mu.Lock()
		}
		// Swap the double buffer: the observer side keeps appending into
		// pending (reusing the other slice's capacity next swap) while
		// the writer drains batch outside the lock.
		sess.pending, sess.batch = sess.batch[:0], sess.pending
		done := sess.done
		sess.mu.Unlock()

		for _, n := range sess.batch {
			if c.w.frame(n) != nil {
				return false
			}
		}
		if done {
			// The zero-length end-of-stream frame. A failed write means a
			// dead peer: report it so the session tears down instead of
			// the connection lingering.
			return c.w.frame(0) == nil
		}
	}
}

// Counters is the engine-side accounting a stats line or selftest
// summary reports alongside the collector's tallies.
type Counters struct {
	Admitted, Deferred, Rejected, Departed int
	InService, Book                        int
	Underruns                              int
}

// Counters snapshots the admission tallies and the engine's live state.
// Tallies merge lock-free from the collector's per-disk cells; the
// engine reads take each shard's lock in turn, never more than one at
// a time.
func (srv *Server) Counters() Counters {
	var c Counters
	for i, sh := range srv.shards {
		d := srv.live.Disk(i)
		c.Admitted += int(d.Admitted.Load())
		c.Deferred += int(d.Deferred.Load())
		c.Rejected += int(d.Rejected.Load())
		c.Departed += int(d.Departed.Load())
		c.Underruns += int(d.Underruns.Load())
		sh.clock.Do(func() {
			c.InService += sh.disk.InService()
			c.Book += sh.disk.BookLen()
		})
	}
	return c
}

// Stats is one JSON stats line: engine time and live occupancy wrapped
// around the collector's snapshot. SERVING.md documents every field.
type Stats struct {
	// EngineNowS is the engine clock in simulated seconds.
	EngineNowS float64 `json:"engine_now_s"`
	// InService counts streams currently holding a buffer.
	InService int `json:"in_service"`
	// Book counts admission-book entries (in service + committed).
	Book int `json:"book"`
	// Router, in cluster mode, snapshots the fleet's admission router:
	// routed/failover/rejected tallies, the per-disk knee cap, and the
	// live committed count per global disk.
	Router *cluster.RouterStats `json:"router,omitempty"`
	livemetrics.Snapshot
}

// Stats snapshots the server for one stats line. Reporting path: it
// takes each shard's lock briefly and allocates.
func (srv *Server) Stats() Stats {
	s := Stats{EngineNowS: float64(srv.clock.Now())}
	if srv.rt != nil {
		rs := srv.rt.Stats()
		s.Router = &rs
	}
	for i, sh := range srv.shards {
		sh.clock.Do(func() {
			s.InService += sh.disk.InService()
			s.Book += sh.disk.BookLen()
		})
		// Sample the shard's live jitter compensation into its gauge so
		// the snapshot's jitter_comp_ms reflects this instant.
		srv.live.Disk(i).JitterCompMicros.Store(int64(sh.clock.Compensation() / time.Microsecond))
	}
	s.Snapshot = srv.live.Snapshot()
	return s
}

// StatsEvery writes one JSON stats line to w every interval until the
// returned stop function is called.
func (srv *Server) StatsEvery(interval time.Duration, w io.Writer) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		enc := json.NewEncoder(w)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				enc.Encode(srv.Stats())
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
