// Package engine is the clock-abstracted streaming runtime of the
// reproduction: the scheme-agnostic machinery that admits requests, sizes
// and schedules buffer fills, paces disk reads, and enforces the paper's
// predict-and-enforce dynamic allocation — independent of whether time is
// virtual or real.
//
// The engine is deliberately a library with two drivers:
//
//   - internal/sim feeds it a workload.Trace under a VirtualClock and
//     collects a Result through an Observer — the discrete-event
//     simulation reproducing the paper's evaluation (Section 5).
//   - cmd/vodserver feeds it live TCP requests under a WallClock and
//     relays completed fills to viewers — a real server running the very
//     same admission/allocation code the experiments validate.
//
// The pluggable pieces are the Clock (virtual or scaled wall time), the
// Scheduler (Round-Robin/BubbleUp, Sweep*, GSS* — Section 2.2), the
// Allocator (static, dynamic, naive, memory-knee — Sections 2.3 and 3), the
// Observer instrumentation fan-out, and an optional admission Gate (the
// capacity experiments' shared-memory governor). Everything else — the
// per-disk service loop, the deferral queue, the prediction-estimate
// bookkeeping — is the invariant core.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// Gate is an optional admission hook consulted after capacity: the
// capacity experiments' shared-memory governor reserves the analytical
// minimum memory for a disk's committed load and rejects arrivals whose
// reservation would exceed the budget (Figs. 13-14).
type Gate interface {
	// TryAdmit attempts to reserve resources for one more committed
	// request on d's disk; false rejects the arrival.
	TryAdmit(d *Disk) bool
	// Release refreshes d's reservation after a departure.
	Release(d *Disk)
}

// Config parameterizes an engine System.
type Config struct {
	// Clock supplies time and callback scheduling: each disk runs on
	// Clock.DiskClock(disk). A VirtualClock is a single-shard domain
	// (all disks on one deterministic event loop); a WallClock gives
	// every disk its own concurrent shard. Required.
	Clock ClockDomain

	// Allocator is the buffer allocation scheme. Required.
	Allocator Allocator

	// Method selects the buffer scheduling method (Section 2.2). The
	// default Scheduler factory maps it to Round-Robin/Sweep*/GSS*.
	Method sched.Method

	// NewScheduler overrides the Scheduler a disk runs; nil uses the
	// method's standard implementation.
	NewScheduler func(*Disk) Scheduler

	// Spec is the disk model; every disk in the system is identical.
	Spec diskmodel.Spec

	// CR is the streams' default consumption rate — the rate of every
	// request that does not carry its own (workload.Request.Rate == 0),
	// and the paper's single global rate.
	CR si.BitRate

	// Rates lists the additional per-stream consumption rates the system
	// must be able to serve: the union of the library's ladder rungs.
	// Each distinct rate, CR first, gets its own sizing context (DeriveN,
	// the Theorem 1 table, and the Eq. 5 table on first use);
	// duplicates and rates equal to CR add none. The paper's uniform-rate
	// regime is simply the one-context case of the same code. An arrival
	// at a rate with no context is rejected (RejectRate).
	Rates []si.BitRate

	// Downgrade enables downgrading admission (arXiv:1604.00894): an
	// arrival whose requested rung does not fit the disk's predicted
	// capacity is stepped down its title's bitrate ladder to the first
	// rung that does, and only rejected when none fits. Requires Rates
	// (a uniform-rate system has no lower rungs to step to).
	Downgrade bool

	// Adapt, when non-nil, enables mid-stream bitrate adaptation: at the
	// start of each service the disk may step a started stream down its
	// title's ladder when its buffer occupancy falls inside the reservoir,
	// and back up toward the requested rung on sustained bandwidth
	// headroom (see AdaptConfig). Requires Rates — a uniform-rate system
	// has no rungs to switch across. Nil runs the admission-time-only
	// ladder paths unchanged.
	Adapt *AdaptConfig

	// Alpha is the dynamic scheme's inertia slack (>= 1).
	Alpha int

	// ChurnSafeAdmission tightens the dynamic scheme's runtime
	// enforcement from Fig. 5's concurrency form — n+1 ≤ min_i(n_i+k_i)
	// — to per-buffer admission budgets: at most k_i requests may enter
	// service between buffer i's consecutive fills (core.AdmitBudget).
	// The two rules are equivalent while no stream departs inside an
	// open usage period, which the paper's two-hour titles guarantee;
	// with short titles at modern-disk loads, usage periods stretch to
	// minutes and replacement churn injects first fills the concurrency
	// form never counts, voiding the sizing guarantee. Scenarios in that
	// regime set this. Only the dynamic allocator consults it.
	ChurnSafeAdmission bool

	// DeadlineAwareBubbleUp gates Round-Robin/BubbleUp's immediate
	// service of newcomers on the started backlog's schedule: a fresh
	// stream is serviced at once only when the latest safe start of the
	// pending refills leaves room for the inserted service. The paper's
	// BubbleUp checks only the earliest deadline, which is sound while
	// buffer sizes are stable between refill generations; at modern
	// scale, growing loads compress a refill generation's deadline
	// spacing below the next generation's service time, and newcomers
	// inserted mid-catch-up push the tail of the backlog past its
	// deadlines. Scenarios in that regime set this alongside
	// ChurnSafeAdmission.
	DeadlineAwareBubbleUp bool

	// RampAwarePlanning makes the dynamic scheme's worst-case service
	// planning assume the admission window's full load instead of the
	// current one. Theorem 1 sizes a buffer's usage period to cover
	// n+k services of BS_{k+α}(n+k) — services at the load the window
	// may REACH — but PlanSize at load n feeds the lazy-start and
	// cushion math services of BS(n), which is what fills cost only if
	// no admission lands. On a fast ramp the k admissions do land, each
	// mid-round fill allocates above plan, and the wake computed from
	// the smaller services leaves the round's tail short by about
	// n·(BS(n+k)−BS(n))/TR — underruns with the disk 100% busy. With
	// this set, planning evaluates at min_i(n_i+k_i), the largest load
	// any in-window allocation can see, restoring the theorem's
	// accounting. Scenarios driving hard ramps set it alongside
	// ChurnSafeAdmission; only the dynamic allocator consults it.
	RampAwarePlanning bool

	// TLog is the arrival-history window for k estimation.
	TLog si.Seconds

	// Library provides titles, placement, and the disk count.
	Library *catalog.Library

	// PageSize accounts buffer memory in whole pages of this size
	// (0 = exact variable-length accounting, the paper's simplification).
	PageSize si.Bits

	// UnderrunTolerance overrides the buffer pools' underrun grace in
	// engine seconds (0 = buffer.UnderrunTolerance, the model's
	// millisecond). Live drivers running the engine under a compressed
	// wall clock set this to the model grace times the compression, so a
	// fill landing within a wall millisecond of its deadline still counts
	// as the hand-to-mouth refill the schedule planned — not as the OS's
	// scheduling latency charged to the paper's admission model.
	UnderrunTolerance si.Seconds

	// DisableBubbleUp runs the Round-Robin method as plain Fixed-Stretch
	// (Section 2.2.1). Ignored by Sweep* and GSS*.
	DisableBubbleUp bool

	// Seed feeds the disks' rotational-delay streams.
	Seed int64

	// SizeTable, when non-nil, supplies the precomputed dynamic sizing
	// table instead of building one. The table is immutable after
	// construction and the build is O(N²·√N), so callers running many
	// systems with identical (Spec, Method, CR, Alpha) — the experiment
	// harness's replications — share one. It must have been built with
	// NewTable under exactly this config's parameters and latency model;
	// New rejects tables whose parameters or full-load size disagree.
	SizeTable *core.Table

	// Observer receives instrumentation callbacks; nil observes nothing.
	Observer Observer

	// Gate, when set, is consulted on every arrival after the capacity
	// check and released on departures.
	Gate Gate
}

// System is a group of disks sharing one clock domain, allocator, and
// parameter set — the runtime a driver feeds requests into.
type System struct {
	cfg    Config
	domain ClockDomain
	obs    Observer
	gate   Gate
	disks  []*Disk

	// params are the base rate's sizing parameters, ctxs[0].params by
	// value: the estimator and the refill floor read them on every fill.
	params core.Params

	// ctxs holds one sizing context per distinct stream rate, the base CR
	// first — the only entry in the paper's uniform-rate regime;
	// rateCtx.idx indexes it, as does each disk's live-stream counter.
	// Worst-case planning walks it, bounding over the rates actually in
	// service rather than the widest configured rate — a hypothetical
	// slow-rate stream near its own capacity knee would otherwise inflate
	// every plan and wreck the schedule for the streams that exist.
	ctxs []*rateCtx

	// adapt is the normalized mid-stream adaptation policy; nil when
	// adaptation is off, in which case no switching code runs at all.
	adapt *AdaptConfig

	// admitCap is the committed-stream count capacity arrivals are
	// rejected at: DeriveN at the smallest configured rate (N in the
	// uniform regime), lowered by a capping allocator (KneeAllocator).
	admitCap int
	// bwCap is the committed consumption-bandwidth capacity of a disk (Σ
	// rates must stay strictly below it, generalizing N·CR < TR): the
	// transfer rate, lowered by a capping allocator.
	bwCap si.BitRate
}

// formula names what sizes a buffer: one of a rate context's sizing
// tables, or its full-load constant.
type formula int

const (
	eq5      formula = iota // the naive scheme: Eq. 5 at n+k
	theorem1                // the dynamic scheme's recurrence (Section 3.2)
	fullLoad                // the static scheme: BS(N) at any load
)

// rateCtx is one consumption rate's sizing context: its derived
// parameters (own N = DeriveN(TR, rate)), its full-load size and its
// sizing tables. The naive scheme's Eq. 5 table is built on first use,
// under a Once because disks on different shards of a multi-shard clock
// domain race to trigger it.
type rateCtx struct {
	idx        int // position in System.ctxs; indexes Disk.rateLive
	rate       si.BitRate
	params     core.Params
	staticSize si.Bits
	table      *core.Table // Theorem 1, built at construction
	lazy       struct {    // Eq. 5, built on first use
		once sync.Once
		tab  *core.Table
	}
}

// New builds a System: derives the sizing parameters of every stream rate
// from the disk (Eq. 1), precomputes the dynamic size tables
// (Section 3.3), and creates one Disk per library disk.
func New(cfg Config) (*System, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("engine: config needs a clock")
	}
	if cfg.Allocator == nil {
		return nil, fmt.Errorf("engine: config needs an allocator")
	}
	if cfg.Library == nil {
		return nil, fmt.Errorf("engine: config needs a library")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Method.Validate(); err != nil {
		return nil, err
	}
	if cfg.TLog <= 0 {
		return nil, fmt.Errorf("engine: non-positive TLog %v", cfg.TLog)
	}
	sys := &System{cfg: cfg, domain: cfg.Clock, gate: cfg.Gate, bwCap: cfg.Spec.TransferRate}
	sys.obs = cfg.Observer
	if sys.obs == nil {
		sys.obs = NopObserver{}
	}
	// widest is the largest full-load buffer any stream may ever be
	// allocated, BS(N) exactly in the uniform regime.
	var widest si.Bits
	shared := cfg.SizeTable // sizes the base rate only
	for _, r := range append([]si.BitRate{cfg.CR}, cfg.Rates...) {
		if sys.ctxFor(r) != nil {
			continue
		}
		c, err := sys.newRateCtx(r, shared)
		if err != nil {
			return nil, err
		}
		shared = nil
		sys.ctxs = append(sys.ctxs, c)
		widest = maxBits(widest, c.staticSize)
		// The smallest rate admits the most concurrent streams; its N is
		// the count any sizing table can back.
		sys.admitCap = max(sys.admitCap, c.params.N)
	}
	sys.params = sys.ctxs[0].params
	if cfg.Adapt != nil {
		if len(sys.ctxs) == 1 {
			return nil, fmt.Errorf("engine: Adapt requires a multi-rate ladder (Config.Rates); a uniform-rate system has no rungs to switch across")
		}
		a, err := cfg.Adapt.withDefaults()
		if err != nil {
			return nil, err
		}
		sys.adapt = &a
	}
	if c, ok := cfg.Allocator.(admissionCapper); ok {
		sys.admitCap = c.AdmitCapCount(sys.admitCap)
		sys.bwCap = c.AdmitCapBandwidth(sys.bwCap)
	}
	// A chunked library must be able to serve the largest buffer the
	// server will ever allocate from a single chunk. Contiguous
	// placements impose no bound: fills are clamped inside the video.
	if maxRead := cfg.Library.ChunkedMaxRead(); maxRead < widest {
		return nil, fmt.Errorf("engine: library chunked max read %v below the largest buffer %v — rebuild the library with a larger MaxRead",
			maxRead, widest)
	}
	for d := 0; d < cfg.Library.Disks(); d++ {
		sys.disks = append(sys.disks, newDisk(sys, d))
	}
	return sys, nil
}

// newRateCtx derives the sizing context of one stream rate. shared, when
// non-nil, is a caller-supplied Theorem 1 table (Config.SizeTable) used in
// place of building one, after checking it was built for this rate.
func (sys *System) newRateCtx(rate si.BitRate, shared *core.Table) (*rateCtx, error) {
	cfg := &sys.cfg
	if rate <= 0 || rate >= cfg.Spec.TransferRate {
		return nil, fmt.Errorf("engine: stream rate %v outside (0, TR=%v)", rate, cfg.Spec.TransferRate)
	}
	p := core.Params{
		TR:    cfg.Spec.TransferRate,
		CR:    rate,
		N:     core.DeriveN(cfg.Spec.TransferRate, rate),
		Alpha: cfg.Alpha,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: rate %v: %w", rate, err)
	}
	c := &rateCtx{
		idx:        len(sys.ctxs),
		rate:       rate,
		params:     p,
		staticSize: p.StaticSize(cfg.Method.WorstDL(cfg.Spec, p.N), p.N),
	}
	if shared == nil {
		shared = core.NewTable(p, cfg.Method.DLModel(cfg.Spec))
	} else if shared.Params() != p {
		return nil, fmt.Errorf("engine: shared sizing table built for %+v, config derives %+v",
			shared.Params(), p)
	} else if got := shared.Size(p.N, 0); got != c.staticSize {
		// The parameters don't capture the latency model; probe the
		// full-load boundary, which every correctly built table pins to
		// the method's worst disk latency at N.
		return nil, fmt.Errorf("engine: shared sizing table full-load size %v, method/spec derive %v",
			got, c.staticSize)
	}
	c.table = shared
	return c, nil
}

// ctxFor returns the sizing context for a stream rate, or nil when the
// system was not configured to serve it. The contexts are a handful — a
// ladder's rungs — so a scan beats a map.
func (sys *System) ctxFor(rate si.BitRate) *rateCtx {
	for _, c := range sys.ctxs {
		if c.rate == rate {
			return c
		}
	}
	return nil
}

// lazyTable returns c's Eq. 5 table, building it on first use.
func (sys *System) lazyTable(c *rateCtx) *core.Table {
	l := &c.lazy
	l.once.Do(func() {
		l.tab = core.NewTableWith(c.params, sys.cfg.Method.DLModel(sys.cfg.Spec), core.Params.NaiveSize)
	})
	return l.tab
}

// AdmitCap reports the committed-stream count capacity of each disk.
func (sys *System) AdmitCap() int { return sys.admitCap }

// SetGate installs an admission gate. It must be set before the system
// processes arrivals (the simulator's governor needs the built System, so
// it cannot ride in on the Config).
func (sys *System) SetGate(g Gate) { sys.gate = g }

// AttachObserver composes o onto the system's observer fan-out, after any
// observer the Config carried. Like SetGate, it exists for drivers whose
// instrumentation needs the built System (the sharing layer both submits
// to the system and observes it); it must be called before the system
// processes arrivals.
func (sys *System) AttachObserver(o Observer) {
	if _, ok := sys.obs.(NopObserver); ok {
		sys.obs = o
		return
	}
	sys.obs = Observers{sys.obs, o}
}

// Clock returns the system's clock domain.
func (sys *System) Clock() ClockDomain { return sys.domain }

// Params returns the base rate's sizing parameters (TR, CR, N, alpha).
func (sys *System) Params() core.Params { return sys.params }

// StaticSize returns the base rate's full-load buffer size BS(N).
func (sys *System) StaticSize() si.Bits { return sys.ctxs[0].staticSize }

// Table returns the base rate's precomputed dynamic sizing table.
func (sys *System) Table() *core.Table { return sys.ctxs[0].table }

// Disks reports the number of disks.
func (sys *System) Disks() int { return len(sys.disks) }

// Disk returns the i'th disk.
func (sys *System) Disk(i int) *Disk { return sys.disks[i] }

// OnArrival routes a request to the disk holding its title and runs the
// arrival protocol: record for prediction, reject at capacity or by the
// gate, else queue for admission and dispatch.
func (sys *System) OnArrival(req workload.Request) {
	sys.disks[req.Disk].onArrival(req)
}
