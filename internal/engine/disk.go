package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/si"
	"repro/internal/workload"
)

// Stream is one admitted request being serviced by a disk.
type Stream struct {
	disk        *Disk // owning disk, for pre-bound clock callbacks
	id          int
	req         workload.Request
	place       catalog.Placement
	rate        si.BitRate // consumption rate (== ctx.rate)
	want        si.BitRate // rung the viewer requested — adaptation's up-switch ceiling
	booked      si.BitRate // rate held in the committed-bandwidth book (never shrinks mid-stream)
	ctx         *rateCtx   // sizing context of the current rate
	nAtArrival  int        // requests in service at its arrival (Fig. 11's x-axis)
	required    si.Bits    // total data the user will consume: rate · viewing
	delivered   si.Bits    // data read from disk so far
	size        si.Bits    // most recent allocated buffer size
	lastFill    si.Bits    // amount of the in-flight or most recent fill
	deadline    si.Seconds // cached pool EmptyAt, refreshed at each fill
	lastFillAt  si.Seconds // completion time of the most recent fill
	firstFill   si.Seconds
	rateSince   si.Seconds // when the current rate epoch began (start or last switch)
	headroomRun int        // consecutive services with up-switch headroom (adaptation)
	admittedAt  si.Seconds // when the stream entered service
	slot        int        // index in Disk.streams (admission order)
	admitSeq    int64      // monotone admission sequence, ties in the deadline index
	dlKey       si.Seconds // deadline value the deadline index holds
	inDl        bool       // member of the deadline index
	departT     Timer      // pending departure, rescheduled on Extend
	started     bool       // first fill has landed
	active      bool       // still owned by the disk
	doomed      bool       // departed mid-service; remove at completion
	starved     bool       // suffered at least one underrun (QoE accounting)
	group       int        // GSS group index
}

// ID returns the stream's request ID.
func (st *Stream) ID() int { return st.id }

// Req returns the request the stream serves.
func (st *Stream) Req() workload.Request { return st.req }

// NAtArrival reports how many requests were in service on the stream's
// disk when it arrived (Fig. 11's x-axis).
func (st *Stream) NAtArrival() int { return st.nAtArrival }

// Required is the total data the viewer will consume: rate · viewing time.
func (st *Stream) Required() si.Bits { return st.required }

// Rate is the stream's consumption rate — the delivered ladder rung,
// which downgrading admission may have stepped below the requested one.
func (st *Stream) Rate() si.BitRate { return st.rate }

// RateSince reports when the stream's current rate epoch began: its
// first fill, or its most recent mid-stream switch. Inside an
// OnRateSwitch callback it still reports the epoch that is ending, so
// observers can accrue time-weighted delivered-rung accounting without
// keeping per-stream state of their own.
func (st *Stream) RateSince() si.Seconds { return st.rateSince }

// Starved reports whether the stream suffered at least one underrun —
// the per-stream signal behind the QoE layer's starvation probability
// (arXiv:1108.0187).
func (st *Stream) Starved() bool { return st.starved }

// Delivered is the data read from disk so far (including the in-flight
// fill once it has been issued).
func (st *Stream) Delivered() si.Bits { return st.delivered }

// Size is the stream's most recently allocated buffer size.
func (st *Stream) Size() si.Bits { return st.size }

// Started reports whether the stream's first fill has landed.
func (st *Stream) Started() bool { return st.started }

// AdmittedAt reports when the stream entered service — the instant its
// admission-to-first-byte latency starts, which live instrumentation
// (internal/livemetrics) measures against OnStart.
func (st *Stream) AdmittedAt() si.Seconds { return st.admittedAt }

// needService reports whether the stream still has data to fetch.
func (st *Stream) needService() bool {
	return st.active && st.delivered < st.required
}

// Pre-bound clock callbacks: package-level functions carry no per-call
// closure, so a steady-state stream schedules its recurring events
// (dispatch wake-ups, fill completions, departures) with zero heap
// allocations — the event payload slot carries the receiver.
func dispatchCB(arg any) { arg.(*Disk).dispatch() }
func wakeCB(arg any)     { arg.(*Disk).onWake() }
func departCB(arg any)   { st := arg.(*Stream); st.disk.depart(st) }
func completeCB(arg any) { st := arg.(*Stream); st.disk.completeService(st) }

// queued is an accepted request waiting for admission (deferral under the
// dynamic scheme's enforcement, or simply for the next service slot).
type queued struct {
	req        workload.Request
	rate       si.BitRate // resolved consumption rate (ladder rung or CR)
	want       si.BitRate // rung requested before any downgrade (adaptation ceiling)
	nAtArrival int
}

// estEntry is a pending prediction check: at start a buffer was allocated
// with kc estimated additional requests over its usage period; once the
// period closes, the estimate is compared with actual arrivals.
type estEntry struct {
	start, end si.Seconds
	kc         int
}

// Disk runs one disk's streaming service: its scheduler, allocator
// bookkeeping, admission control, and buffer pool.
type Disk struct {
	sys   *System
	id    int
	clock Clock
	disk  *diskmodel.Disk
	pool  *buffer.Pool

	// streams holds the in-service streams in admission order. The order
	// is load-bearing: scheduler tie-breaks (equal deadlines, equal
	// arrivals) resolve by admission order, so removal must shift, not
	// swap-delete — each stream's slot field makes the position lookup
	// O(1) and the shift a single memmove.
	streams []*Stream

	// queue is the admission-deferral FIFO, popped by head index instead
	// of re-slicing so steady-state admission touches O(1) entries.
	queue []queued
	qhead int

	book *core.Book
	est  *core.Estimator

	// Committed (in-service + queued) and in-service consumption
	// bandwidth — the admission and bandwidth-equivalent sizing signals
	// (committed()·CR and n()·CR, up to float residue, while every stream
	// runs at one rate).
	committedRate si.BitRate
	serviceRate   si.BitRate

	// rateLive counts in-service streams per rate context (indexed by
	// rateCtx.idx). Worst-case planning bounds over the contexts with live
	// streams only.
	rateLive []int

	// admits counts streams that entered service over the disk's
	// lifetime. Under churn-safe admission, budget mirrors book but
	// stamps each allocation with the admission count at fill time, so
	// min_i(stamp_i + k_i) bounds further admissions (core.AdmitBudget).
	admits int
	budget *core.Book // nil unless Config.ChurnSafeAdmission

	// lastDistress and lastUp pace the rate map's recovery side (see
	// adaptUp): lastDistress is the most recent time this disk produced
	// an underrun or a distress down-switch, lastUp the most recent
	// up-switch. Together they turn recovery into a gradual ramp — one
	// step per usage period, paused after any distress — instead of a
	// thundering herd.
	lastDistress si.Seconds
	lastUp       si.Seconds

	sched Scheduler

	busy    bool
	current *Stream
	// wake is the pending lazy-start or stall-retry timer; (woken, wokenAt)
	// is the scheduler's answer a lazy-start wake was set for, woken nil
	// whenever none is pending (see onWake).
	wake    Timer
	woken   *Stream
	wokenAt si.Seconds

	admitSeq int64 // next stream's admission sequence number

	// deadlines indexes started streams that still need service by
	// (deadline, admitSeq), kept sorted: a deadline changes only at fill
	// completion, so the index absorbs a head advance and a tail append
	// there, and every scheduling decision reads the earliest stream and
	// the ascending deadline sequence without scanning or sorting.
	deadlines deadlineIndex

	// fresh is a FIFO of admitted streams awaiting their first fill.
	// Admission order is arrival order, so the head is the scan winner
	// (earliest arrival, earliest admission on ties); entries that
	// started or departed are skipped lazily — neither state reverts.
	fresh     []*Stream
	freshHead int

	// k_log caching: the two-pointer window scan is recomputed only when
	// new arrivals landed or the cache is older than klogRefresh.
	kcDirty   bool
	klogCache int
	klogAt    si.Seconds

	lastPeriod si.Seconds // usage period of the last allocated buffer

	// worstDL is Method.WorstDL(Spec, worstDLAt), a pure function of the
	// load: every dispatch reads it, only an admission or a departure
	// changes its argument.
	worstDL   si.Seconds
	worstDLAt int

	// estArrivals holds accepted arrivals for estimation-success
	// accounting — a request rejected outright at capacity is never
	// serviced, so it is not an "additional request" the prediction needs
	// to cover. (The raw stream every arrival joins lives in est, which
	// prunes itself to the T_log window.) Entries at or below the oldest
	// pending window's start are pruned in resolveEstimates, so the log
	// stays bounded over arbitrarily long runs. Both logs are ring
	// buffers: one estimate is recorded per fill, and slice append/trim
	// churn here used to account for nearly all of a simulated day's
	// allocated bytes.
	estArrivals fifo[si.Seconds]
	pending     fifo[estEntry]

	// scratch buffers reused across dispatches.
	dlMerge []si.Seconds
	cylSort cylSorter
}

// klogRefresh bounds how stale the cached k_log may get between arrivals:
// the window only slides, so k_log can only decrease while no arrivals
// come, and a short staleness is harmless.
const klogRefresh = si.Seconds(10)

func newDisk(sys *System, id int) *Disk {
	d := &Disk{
		sys:   sys,
		id:    id,
		clock: sys.domain.DiskClock(id),
		disk:  diskmodel.NewDisk(sys.cfg.Spec, sys.cfg.Seed*1000003+int64(id)),
		pool:  buffer.NewPagedPool(0, sys.cfg.PageSize),
		book:  core.NewBook(),
		est:   core.NewEstimator(sys.cfg.TLog),

		rateLive: make([]int, len(sys.ctxs)),
	}
	if sys.cfg.ChurnSafeAdmission {
		d.budget = core.NewBook()
	}
	if sys.cfg.UnderrunTolerance > 0 {
		d.pool.SetUnderrunTolerance(sys.cfg.UnderrunTolerance)
	}
	// A sane initial period guess: the usage period of the smallest
	// dynamic buffer. Updated at every allocation.
	d.lastPeriod = sys.params.UsagePeriod(sys.ctxs[0].table.Size(1, sys.params.Alpha))
	if sys.cfg.NewScheduler != nil {
		d.sched = sys.cfg.NewScheduler(d)
	} else {
		d.sched = NewScheduler(d)
	}
	d.pool.SetUnderrunFunc(func(id int, now, gap si.Seconds) {
		d.markStarved(id)
		d.lastDistress = now
		sys.obs.OnUnderrun(d.id, id, now, gap)
	})
	return d
}

// markStarved flags the starved stream for QoE accounting. Underruns are
// the rare failure the sizing theorems exist to prevent, so a linear
// scan costs nothing in steady state.
func (d *Disk) markStarved(id int) {
	for _, st := range d.streams {
		if st.id == id {
			st.starved = true
			return
		}
	}
}

func (d *Disk) now() si.Seconds { return d.clock.Now() }

// ID reports the disk's index in the system.
func (d *Disk) ID() int { return d.id }

// n reports the number of requests in service on this disk.
func (d *Disk) n() int { return len(d.streams) }

// InService reports the number of requests in service on this disk.
func (d *Disk) InService() int { return len(d.streams) }

// QueueLen reports accepted requests still waiting for admission.
func (d *Disk) QueueLen() int { return len(d.queue) - d.qhead }

// committed reports requests in service plus accepted-but-deferred ones,
// the count capacity rejection uses.
func (d *Disk) committed() int { return len(d.streams) + d.QueueLen() }

// Committed reports requests in service plus accepted-but-deferred ones.
func (d *Disk) Committed() int { return d.committed() }

// CommittedRate reports the committed consumption bandwidth: the sum of
// the rates of in-service plus accepted-but-deferred requests.
func (d *Disk) CommittedRate() si.BitRate { return d.committedRate }

// BookLen reports the number of inertia-book entries (dynamic scheme).
func (d *Disk) BookLen() int { return d.book.Len() }

// Pool returns the disk's buffer pool.
func (d *Disk) Pool() *buffer.Pool { return d.pool }

// DiskStats returns the disk model's operation counters.
func (d *Disk) DiskStats() diskmodel.ReadStats { return d.disk.Stats() }

// Streams returns the streams in service, in admission order. The slice
// is the disk's own — callers must not mutate it.
func (d *Disk) Streams() []*Stream { return d.streams }

// onArrival handles a request arriving at this disk: record it for the
// estimator, reject it when nothing can size its rate or when the disk or
// the admission gate is full, else accept it into the deferral queue and
// try to dispatch.
func (d *Disk) onArrival(req workload.Request) {
	now := d.now()
	d.est.RecordArrival(now)
	d.kcDirty = true
	d.resolveEstimates(now)

	rate := req.Rate
	if rate <= 0 {
		rate = d.sys.cfg.CR
	}
	want := rate
	if d.sys.ctxFor(rate) == nil {
		d.sys.obs.OnReject(d.id, req, RejectRate, now)
		return
	}
	if !d.fitsRate(rate) {
		// Predicted shortfall at the requested rung: walk the title's
		// ladder downward (arXiv:1604.00894's downgrading allocation)
		// before giving up.
		rate = d.downgrade(req, rate, now)
		if rate <= 0 {
			d.sys.obs.OnReject(d.id, req, RejectCapacity, now)
			return
		}
		req.Rate = rate
	}
	if g := d.sys.gate; g != nil && !g.TryAdmit(d) {
		d.sys.obs.OnReject(d.id, req, RejectMemory, now)
		return
	}
	d.estArrivals.push(now)
	d.queue = append(d.queue, queued{req: req, rate: rate, want: want, nAtArrival: d.n()})
	d.committedRate += rate
	d.dispatch()
}

// fitsRate reports whether one more committed stream at rate r keeps the
// disk inside both its count capacity and its committed-bandwidth
// capacity — the mixed-rate generalization of N·CR < TR.
func (d *Disk) fitsRate(r si.BitRate) bool {
	if d.committed() >= d.sys.admitCap {
		return false
	}
	return d.committedRate+r < d.sys.bwCap
}

// snapCommittedRate zeroes the bandwidth books when their populations
// empty: summing += r / -= r over mixed float rates leaves ulp-sized
// residue that would otherwise accumulate over a long run and bias
// fitsRate at the margin.
func (d *Disk) snapCommittedRate() {
	if d.committed() == 0 {
		d.committedRate = 0
	}
	if len(d.streams) == 0 {
		d.serviceRate = 0
	}
}

// downgrade walks req's title ladder below the requested rung and
// returns the first rate the disk can take, or 0 when downgrading is off
// or no rung fits. Only rungs the system has sizing contexts for are
// considered.
func (d *Disk) downgrade(req workload.Request, from si.BitRate, now si.Seconds) si.BitRate {
	if !d.sys.cfg.Downgrade {
		return 0
	}
	for _, rung := range d.sys.cfg.Library.Video(req.Video).Rungs() {
		if rung >= from || d.sys.ctxFor(rung) == nil {
			continue
		}
		if d.fitsRate(rung) {
			d.sys.obs.OnDowngrade(d.id, req, from, rung, now)
			return rung
		}
	}
	return 0
}

// Cancel withdraws a request by ID, whether it is still queued for
// admission or already in service. The live driver uses it for viewers
// that hang up or time out; the simulator never cancels, so simulation
// schedules are unaffected. It reports whether a still-queued entry was
// withdrawn — that path fires no observer callback, so accounting
// layered on OnDepart (e.g. a fleet router's load tracking) must release
// on true; the in-service path departs through OnDepart as usual.
func (d *Disk) Cancel(id int) bool {
	for i := d.qhead; i < len(d.queue); i++ {
		if d.queue[i].req.ID == id {
			d.committedRate -= d.queue[i].rate
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			if d.qhead == len(d.queue) {
				d.queue, d.qhead = d.queue[:0], 0
			}
			d.snapCommittedRate()
			if g := d.sys.gate; g != nil {
				g.Release(d)
			}
			return true
		}
	}
	for _, st := range d.streams {
		if st.id == id {
			d.depart(st)
			return false
		}
	}
	return false
}

// Extend raises a committed request's viewing time to at least viewing,
// whether the request is still queued for admission or already in
// service. The sharing layer uses it when a late viewer piggybacks onto
// a stream whose remaining horizon is shorter than the newcomer needs:
// the stream's required data grows by the same CR·viewing rule admission
// used, its departure moves to firstFill+viewing, and — if it had
// finished fetching — it re-enters the service rotation (every scheduler
// re-checks needService dynamically). Extending never shrinks a viewing
// time. It reports whether the request was found; false means the
// request already departed or was never accepted.
func (d *Disk) Extend(id int, viewing si.Seconds) bool {
	for i := d.qhead; i < len(d.queue); i++ {
		if d.queue[i].req.ID == id {
			if viewing > d.queue[i].req.Viewing {
				d.queue[i].req.Viewing = viewing
			}
			return true
		}
	}
	for _, st := range d.streams {
		if st.id == id {
			d.extendStream(st, viewing)
			return true
		}
	}
	return false
}

func (d *Disk) extendStream(st *Stream, viewing si.Seconds) {
	if viewing <= st.req.Viewing {
		return
	}
	st.req.Viewing = viewing
	st.required = maxBits(st.rate.DataIn(viewing), 1)
	// A depart that fired mid-service no longer stands: the stream now
	// outlives the service in flight.
	st.doomed = false
	if !st.started {
		return // the first fill schedules the departure from the new viewing
	}
	st.departT.Cancel()
	st.departT = d.clock.ScheduleFunc(st.firstFill+viewing, departCB, st)
	d.dlFix(st)
	d.dispatch()
}

// admitFromQueue moves accepted requests into service while the scheme's
// admission control allows it.
func (d *Disk) admitFromQueue() {
	for d.qhead < len(d.queue) {
		n := d.n()
		if n >= d.sys.admitCap {
			return
		}
		if !d.sys.cfg.Allocator.Admit(d, n) {
			d.sys.obs.OnDefer(d.id, d.now())
			return
		}
		q := d.queue[d.qhead]
		d.qhead++
		if d.qhead == len(d.queue) {
			d.queue, d.qhead = d.queue[:0], 0
		}
		d.admitSeq++
		d.admits++
		// Serve from this disk's own copy when the library replicates or
		// stripes the title across disks; requests routed to a disk
		// without one fall back to the primary placement's geometry, the
		// historical behavior.
		place, ok := d.sys.cfg.Library.PlacementFor(q.req.Video, d.id)
		if !ok {
			place = d.sys.cfg.Library.Placement(q.req.Video)
		}
		st := &Stream{
			disk:       d,
			id:         q.req.ID,
			req:        q.req,
			place:      place,
			rate:       q.rate,
			want:       q.want,
			booked:     q.rate,
			ctx:        d.sys.ctxFor(q.rate),
			nAtArrival: q.nAtArrival,
			required:   maxBits(q.rate.DataIn(q.req.Viewing), 1),
			deadline:   d.now(), // fresh: due immediately
			firstFill:  -1,
			admittedAt: d.now(),
			slot:       len(d.streams),
			admitSeq:   d.admitSeq,
			active:     true,
		}
		d.streams = append(d.streams, st)
		d.fresh = append(d.fresh, st)
		d.serviceRate += q.rate
		d.rateLive[st.ctx.idx]++
		d.pool.Attach(st.id, q.rate, d.now())
		d.sched.Admit(st)
		d.sys.obs.OnAdmit(d.id, st, d.now())
	}
}

// removeStream detaches a departed stream from every structure and frees
// its capacity.
func (d *Disk) removeStream(st *Stream) {
	if !st.active {
		return
	}
	st.active = false
	st.departT.Cancel()
	st.departT = Timer{}
	d.serviceRate -= st.rate
	d.committedRate -= st.booked
	d.rateLive[st.ctx.idx]--
	d.dlRemove(st)
	d.pool.Detach(st.id, d.now())
	d.book.Remove(st.id)
	if d.budget != nil {
		d.budget.Remove(st.id)
	}
	i, last := st.slot, len(d.streams)-1
	copy(d.streams[i:], d.streams[i+1:])
	d.streams[last] = nil
	d.streams = d.streams[:last]
	for j := i; j < last; j++ {
		d.streams[j].slot = j
	}
	d.sched.Remove(st)
	d.snapCommittedRate()
	d.sys.obs.OnDepart(d.id, st, d.now())
	if g := d.sys.gate; g != nil {
		g.Release(d)
	}
	d.dispatch()
}

// dlInsert adds st to the deadline index if it qualifies (started and
// still fetching), keyed by its current (deadline, admitSeq).
func (d *Disk) dlInsert(st *Stream) {
	if st.inDl || !st.started || !st.needService() {
		return
	}
	st.dlKey = st.deadline
	st.inDl = true
	d.deadlines.insert(st)
}

// dlRemove drops st from the deadline index if present.
func (d *Disk) dlRemove(st *Stream) {
	if !st.inDl {
		return
	}
	d.deadlines.remove(st)
	st.inDl = false
}

// dlFix re-indexes st after its deadline or service need changed.
func (d *Disk) dlFix(st *Stream) {
	d.dlRemove(st)
	d.dlInsert(st)
}

// firstFresh returns the earliest-admitted stream awaiting its first
// fill, or nil. Disqualified entries (started, finished, departed) are
// discarded lazily from the head; neither condition ever reverts, so a
// skipped entry can never qualify again.
func (d *Disk) firstFresh() *Stream {
	for d.freshHead < len(d.fresh) {
		st := d.fresh[d.freshHead]
		if !st.started && st.needService() {
			return st
		}
		d.fresh[d.freshHead] = nil
		d.freshHead++
	}
	if len(d.fresh) > 0 {
		d.fresh, d.freshHead = d.fresh[:0], 0
	}
	return nil
}

// dispatch is the disk's main decision point: admit what the scheduler's
// timing allows, pick the next service, and either start it, sleep until
// its lazy start time, or go idle.
//
// Every mutation of the disk's streams, queue or rates — arrival,
// departure, Extend, rate switch, fill completion — must end in dispatch:
// it cancels the pending wake and forgets the stream that wake was for,
// which is what lets onWake start that stream without asking Next again.
func (d *Disk) dispatch() {
	if d.busy {
		return
	}
	d.wake.Cancel()
	d.wake, d.woken = Timer{}, nil
	if d.sched.CanAdmit() {
		d.admitFromQueue()
	}
	st, startAt := d.sched.Next(d.now())
	if st == nil {
		return // idle: the next arrival or departure re-dispatches
	}
	if startAt > d.now() {
		d.wake = d.clock.ScheduleFunc(startAt, wakeCB, d)
		d.woken, d.wokenAt = st, startAt
		return
	}
	d.beginService(st)
}

// onWake fires the lazy-start wake dispatch set for (woken, wokenAt).
// Whatever the scheduler reads is unchanged — any change goes through
// dispatch, which cancels this wake — so a second Next would name the
// same stream, due by now: start it. Three cases still ask: a non-empty
// admission queue (admitFromQueue's deferrals are observed); a wall shard
// whose jitter compensation fired before wokenAt (it re-sleeps, as ever);
// and a k_log cache gone klogRefresh old, the one input of PlanSize that
// moves with time alone (kcDirty still set means no estimate was asked
// for since the last arrival, so the plan cannot have read the cache).
func (d *Disk) onWake() {
	st, now := d.woken, d.now()
	if st == nil || d.busy || d.qhead < len(d.queue) || now < d.wokenAt ||
		(!d.kcDirty && now-d.klogAt > klogRefresh) {
		d.dispatch()
		return
	}
	d.wake, d.woken = Timer{}, nil
	d.beginService(st)
}

// beginService allocates the buffer for st per the configured scheme and
// starts the disk read.
func (d *Disk) beginService(st *Stream) {
	now := d.now()
	n := d.n()
	if d.sys.adapt != nil && st.started {
		// The rate map's distress side runs before the allocator: a
		// down-switch here re-sizes this very fill against the lower
		// rung's context. A deep down-switch may leave nothing to fetch
		// (the buffered level already covers the re-planned demand); the
		// fill<=0 path below retires the service as usual.
		d.adaptDown(st, now, n)
	}
	size := d.sys.cfg.Allocator.Size(d, st, n)
	st.size = size
	fill := size
	if rem := st.required - st.delivered; fill > rem {
		fill = rem
	}
	// Use-it-and-toss-it: the buffer never holds more than one allocation;
	// a refill only replenishes what the stream has consumed. A member
	// swept early may need nothing at all — skip the disk entirely.
	if room := size - d.pool.Level(st.id, now); fill > room {
		fill = room
	}
	if fill <= 0 {
		d.sched.OnServiced(st)
		d.dispatch()
		return
	}
	cyl := d.sys.cfg.Spec.CylinderOf(st.place.DiskOffset(st.delivered, fill))
	if !d.pool.BeginFill(st.id, fill, now) {
		// Only possible with a hard pool budget (not used by System runs,
		// which admit by formula); retry shortly and count the stall.
		d.sys.obs.OnStall(d.id, now)
		d.wake = d.clock.AfterFunc(d.sys.cfg.Spec.MaxRotational, dispatchCB, d)
		return
	}
	st.delivered += fill
	if !st.needService() {
		// The in-flight fill is the stream's last: it no longer anchors
		// refill deadlines.
		d.dlRemove(st)
	}
	st.lastFill = fill
	dur := d.disk.Read(cyl, fill)
	d.busy = true
	d.current = st
	d.sys.obs.OnFill(d.id, st, now, dur, fill, d.pool.EmptyAt(st.id))
	d.clock.AfterFunc(dur, completeCB, st)
}

// completeService lands the fill, records first-fill latency, schedules
// the departure, and moves on.
func (d *Disk) completeService(st *Stream) {
	now := d.now()
	d.pool.CompleteFill(st.id, now)
	st.deadline = d.pool.EmptyAt(st.id)
	st.lastFillAt = now
	d.busy = false
	d.current = nil
	d.sys.obs.OnFillComplete(d.id, st, st.lastFill, now)
	if !st.started {
		st.started = true
		st.firstFill = now
		st.rateSince = now
		d.sys.obs.OnStart(d.id, st, now)
		st.departT = d.clock.ScheduleFunc(now+st.req.Viewing, departCB, st)
	}
	d.dlFix(st)
	d.sched.OnServiced(st)
	if st.doomed {
		st.doomed = false
		d.removeStream(st)
		return // removeStream dispatched already
	}
	if d.sys.adapt != nil {
		// The rate map's recovery side runs on the full buffer the fill
		// just topped up — the safest moment to trade slack for rate.
		d.adaptUp(st, now)
	}
	d.dispatch()
}

// depart handles the end of a request's viewing time.
func (d *Disk) depart(st *Stream) {
	if !st.active {
		return
	}
	if d.current == st {
		st.doomed = true // finish the in-flight service first
		return
	}
	d.removeStream(st)
}

// recordEstimate logs a (kc, usage period) pair for later success checking
// and refreshes the rolling period estimate.
func (d *Disk) recordEstimate(size si.Bits, kc int) {
	now := d.now()
	t := d.sys.params.UsagePeriod(size)
	d.lastPeriod = t
	d.pending.push(estEntry{start: now, end: now + t, kc: kc})
	d.sys.obs.OnEstimate(d.id, kc, size, now)
}

// Estimate computes kc per Fig. 5 Step 4, exactly as the paper states it:
// min(k_log + alpha, min_i(k_i) + alpha), with the k_log window scan
// cached between arrivals. kc is not clamped to the spare capacity — the
// sizing table saturates at full load for any k >= N−n (the recurrence
// chain clamps at N), and clamping the prediction itself would starve the
// inertia book of realistic snapshots under heavy load.
func (d *Disk) Estimate(n int) int {
	now := d.now()
	if d.kcDirty || now-d.klogAt > klogRefresh {
		d.klogCache = d.est.KLog(now, d.lastPeriod)
		d.klogAt = now
		d.kcDirty = false
	}
	p := d.sys.params
	kc := d.klogCache + p.Alpha
	if minK := d.book.MinK(); minK <= 2*p.N {
		if ceil := minK + p.Alpha; ceil < kc {
			kc = ceil
		}
	}
	if kc < 0 {
		kc = 0
	}
	return kc
}

// ResolveEstimates settles prediction checks whose window has closed:
// an estimate succeeds when kc is at least the number of actual arrivals
// within the usage period (Section 5.1's "successful estimation").
func (d *Disk) ResolveEstimates(now si.Seconds) { d.resolveEstimates(now) }

func (d *Disk) resolveEstimates(now si.Seconds) {
	for d.pending.len() > 0 {
		e := *d.pending.front()
		if e.end > now {
			break
		}
		actual := d.countArrivals(e.start, e.end)
		d.sys.obs.OnEstimateResolved(d.id, e.kc >= actual, now)
		d.pending.popFront()
	}
	// Prune accepted arrivals no outstanding window can query: pending
	// entries are in start order, countArrivals treats its lower bound
	// exclusively, and every future window starts at or after now.
	lo := now
	if d.pending.len() > 0 {
		lo = d.pending.front().start
	}
	if cut := sort.Search(d.estArrivals.len(), func(i int) bool { return *d.estArrivals.at(i) > lo }); cut > 0 {
		d.estArrivals.popN(cut)
	}
}

// countArrivals counts accepted arrivals in (lo, hi] by binary search
// over the in-order log.
func (d *Disk) countArrivals(lo, hi si.Seconds) int {
	a := &d.estArrivals
	i := sort.Search(a.len(), func(i int) bool { return *a.at(i) > lo })
	j := sort.Search(a.len(), func(i int) bool { return *a.at(i) > hi })
	return j - i
}

// effLoad maps the disk's in-service load to an equivalent stream count
// at c's rate: the load whose sizing row covers the same round of disk
// work. While every live stream runs at c's rate that is the stream
// count itself, read off rateLive so float residue in serviceRate never
// reaches a uniform run. In a mixed population two dimensions bound the
// round — its transfer work scales with the consumption bandwidth
// (ceil(serviceRate/rate) rate-c streams move the same bits), but its
// seek-and-rotation work scales with the stream COUNT, which a bandwidth
// quotient undercounts whenever the mix skews below c — and the
// equivalent load is the larger of the two. Undersizing the high rungs in
// a low-skewed mix is not hypothetical: the buffers the inertia book
// snapshots would cover fewer services than the round actually contains,
// admission quietly over-commits, and the schedule erodes into underruns
// — the regime mid-stream down-switching (AdaptConfig) steers into.
//
// floor raises the answer to a load planning must assume anyway (the
// ramp-aware admission window, see DynamicAllocator.PlanSize); the result
// is clamped into c's own table range [1, N].
func (d *Disk) effLoad(c *rateCtx, floor int) int {
	n := len(d.streams)
	if d.rateLive[c.idx] != n {
		n = max(n, int(math.Ceil(float64(d.serviceRate)/float64(c.rate))))
	}
	return min(max(n, floor, 1), c.params.N)
}

// sizeAt evaluates formula f for a stream of c's rate at the disk's
// equivalent load (see effLoad) and prediction k.
func (d *Disk) sizeAt(c *rateCtx, f formula, floor, k int) si.Bits {
	t := c.table
	switch f {
	case fullLoad:
		return c.staticSize
	case eq5:
		t = d.sys.lazyTable(c)
	}
	return t.Size(d.effLoad(c, floor), k)
}

// planOverLive bounds sizeAt over the rate contexts with streams
// currently in service. Bounding over live rates — not every configured
// one — matters: a slow rung evaluated near its own capacity knee would
// inflate every worst-case service estimate and wreck the schedule for
// the streams that actually exist.
func (d *Disk) planOverLive(f formula, floor, k int) si.Bits {
	if d.rateLive[0] == len(d.streams) {
		// Only the base rate is live, or the disk is idle and plans with it.
		return d.sizeAt(d.sys.ctxs[0], f, floor, k)
	}
	var max si.Bits
	for i, c := range d.sys.ctxs {
		if d.rateLive[i] > 0 {
			max = maxBits(max, d.sizeAt(c, f, floor, k))
		}
	}
	return max
}

// worstService bounds the duration of one service at load n: the method's
// worst disk latency plus the transfer of the size the allocator would
// plan for right now.
func (d *Disk) worstService(n int) si.Seconds {
	if n < 1 {
		n = 1
	}
	if n != d.worstDLAt {
		d.worstDLAt, d.worstDL = n, d.sys.cfg.Method.WorstDL(d.sys.cfg.Spec, n)
	}
	size := d.sys.cfg.Allocator.PlanSize(d, n)
	return d.worstDL + d.sys.cfg.Spec.TransferRate.TimeToTransfer(size)
}

// deadlineOf reports when a stream's buffer runs dry (fresh streams are
// due immediately). It reads the cached value refreshed at each fill,
// saving a pool lookup on every scheduling decision.
func (d *Disk) deadlineOf(st *Stream) si.Seconds { return st.deadline }

// roomAt reports the earliest time a refill of st is worthwhile: when the
// buffer has drained to a quarter of its last allocation. Scheduling
// cushions must never outpace consumption — for tiny dynamic buffers the
// cushion can exceed a whole usage period, and without this floor the
// scheduler would spin refilling already-full buffers.
func (d *Disk) roomAt(st *Stream) si.Seconds {
	if st.size <= 0 {
		return 0 // fresh stream: fillable immediately
	}
	return d.deadlineOf(st) - si.Seconds(0.75*float64(d.sys.params.UsagePeriod(st.size)))
}

// lazyMarginServices is the safety cushion applied to lazy starts,
// measured in worst-case service times. Perfectly just-in-time refilling
// leaves no room to absorb a newly admitted stream's immediate first fill
// (the real Fixed-Stretch/BubbleUp schedule keeps that room as free
// slots); refilling two services early restores it at a memory cost of
// 2·w·CR per stream, a couple of percent of a buffer.
const lazyMarginServices = 2

// latestStartSorted computes the safe lazy start for servicing a batch of
// streams sequentially when the service order may be adversarial with
// respect to deadlines: every deadline d_(i) (ascending — the input MUST
// already be sorted, which deadlineIndex.ascending provides) must
// allow i services of duration w first, so start <= min_i(d_(i) − i·w),
// minus the safety cushion.
func latestStartSorted(deadlines []si.Seconds, w si.Seconds) si.Seconds {
	best := deadlines[0] - w
	for i, dl := range deadlines {
		if cand := dl - si.Seconds(i+1)*w; cand < best {
			best = cand
		}
	}
	return best - lazyMarginServices*w
}

func maxBits(a, b si.Bits) si.Bits {
	if a > b {
		return a
	}
	return b
}

// invariants checks the disk's structural bookkeeping between events:
// capacity, stream slots, and the deadline index — well-formed and
// holding exactly the started streams still fetching, each under its
// current deadline. The engine's tests and fuzz target run it after
// every clock event.
func (d *Disk) invariants() error {
	if len(d.streams) > d.sys.admitCap {
		return fmt.Errorf("engine: disk %d exceeds its admit capacity %d with %d streams", d.id, d.sys.admitCap, len(d.streams))
	}
	indexed := 0
	for i, st := range d.streams {
		if st.slot != i {
			return fmt.Errorf("engine: disk %d stream %d slot %d at index %d", d.id, st.id, st.slot, i)
		}
		if st.inDl != (st.started && st.needService()) {
			return fmt.Errorf("engine: disk %d stream %d inDl=%v but started=%v needService=%v", d.id, st.id, st.inDl, st.started, st.needService())
		}
		if !st.inDl {
			continue
		}
		indexed++
		if st.dlKey != st.deadline || d.deadlines.find(st) < 0 {
			return fmt.Errorf("engine: disk %d stream %d (deadline %v) not filed under its key %v", d.id, st.id, st.deadline, st.dlKey)
		}
	}
	if indexed != d.deadlines.size() {
		return fmt.Errorf("engine: disk %d deadline index holds %d streams, %d marked inDl", d.id, d.deadlines.size(), indexed)
	}
	if err := d.deadlines.check(); err != nil {
		return fmt.Errorf("engine: disk %d deadline index: %w", d.id, err)
	}
	return nil
}
