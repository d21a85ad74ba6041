package engine

import (
	"sort"

	"repro/internal/sched"
	"repro/internal/si"
)

// Scheduler is the method-specific part of a disk: when new requests may
// be admitted, which stream is serviced next, and how late that service
// may start. It realises the paper's buffer scheduling methods
// (Section 2.2): Round-Robin with BubbleUp, Sweep*, and GSS*.
//
// All three implementations schedule lazily — a service starts as late as
// the batch's deadlines safely allow — which is what gives Sweep* and
// GSS* their memory-sharing behaviour and keeps the static scheme's
// disks idle between widely spaced refills.
//
// Scheduler methods are called by the engine with the clock's
// serialization guarantee; implementations need no locking of their own.
type Scheduler interface {
	// Admit incorporates a newly admitted stream.
	Admit(st *Stream)
	// Remove drops a departed stream.
	Remove(st *Stream)
	// CanAdmit reports whether the method's timing rules allow admitting
	// new requests at this moment (BubbleUp: always; Sweep*: between
	// periods; GSS*: between groups).
	CanAdmit() bool
	// Next returns the stream to service next and the latest safe start
	// time, or nil when nothing needs service. It must be idempotent: with
	// no Admit, Remove or OnServiced in between, a second call returns the
	// same stream and, once now has reached the returned start, a start no
	// later. The engine relies on it — it asks once per fill and, after
	// sleeping to a future start, begins that stream unasked (Disk.onWake).
	Next(now si.Seconds) (*Stream, si.Seconds)
	// OnServiced records that the stream returned by Next was serviced.
	OnServiced(st *Stream)
}

// NewScheduler builds the standard Scheduler for the disk's configured
// method: Round-Robin (with BubbleUp unless disabled), Sweep*, or GSS*.
func NewScheduler(d *Disk) Scheduler {
	switch d.sys.cfg.Method.Kind {
	case sched.RoundRobin:
		return &rrScheduler{d: d, bubbleUp: !d.sys.cfg.DisableBubbleUp}
	case sched.Sweep:
		return &sweepScheduler{d: d}
	default:
		return &gssScheduler{d: d, cur: -1}
	}
}

// rrScheduler is Round-Robin with BubbleUp: earliest-deadline-first over
// the streams, which reduces to cyclic order in steady state (equal buffer
// sizes imply equally spaced deadlines) and services fresh streams —
// whose deadline is their admission instant — immediately.
type rrScheduler struct {
	d        *Disk
	bubbleUp bool
}

func (p *rrScheduler) Admit(*Stream)      {}
func (p *rrScheduler) Remove(*Stream)     {}
func (p *rrScheduler) CanAdmit() bool     { return true }
func (p *rrScheduler) OnServiced(*Stream) {}

func (p *rrScheduler) Next(now si.Seconds) (*Stream, si.Seconds) {
	// Started streams have viewers draining their buffers: hard deadlines.
	// Fresh streams (first fill pending) are BubbleUp work: serviced
	// immediately, but never at the cost of starving a started buffer.
	// Both are O(1) reads off the disk's maintained indexes: the deadline
	// index's min is the started stream with the earliest (deadline,
	// admission) — the scan winner with its tie-breaks — and the fresh
	// FIFO's head is the earliest-arrived newcomer.
	started := p.d.deadlines.min()
	fresh := p.d.firstFresh()
	if started == nil && fresh == nil {
		return nil, 0
	}
	var startedD si.Seconds
	if started != nil {
		startedD = p.d.deadlineOf(started)
	}
	w := p.d.worstService(p.d.n())
	if started != nil && startedD-(lazyMarginServices+1)*w <= now {
		if room := p.d.roomAt(started); room > now {
			return started, room // full buffer: wait for it to drain
		}
		return started, now // a hard deadline is due (within the cushion)
	}
	dlAware := p.bubbleUp && p.d.sys.cfg.DeadlineAwareBubbleUp
	if fresh != nil {
		if p.bubbleUp {
			if started == nil || !dlAware {
				return fresh, now // BubbleUp: no urgent refill, serve the newcomer
			}
			// Deadline-aware BubbleUp: the newcomer's service inserts one
			// worst service ahead of every pending refill, so it is served
			// now only if the backlog's latest safe start (computed below)
			// leaves that much room. The earliest-deadline check above is
			// not enough once a refill generation's deadline spacing drops
			// below the current service time: the backlog is then a cluster
			// whose tail has far less slack than its head.
		} else {
			// Fixed-Stretch: the newcomer waits until the rotation reaches
			// it — every started stream refilled once after its arrival.
			reached := true
			for _, st := range p.d.streams {
				if st.started && st.active && st.lastFillAt < fresh.req.Arrival {
					reached = false
					break
				}
			}
			if reached {
				return fresh, now
			}
			// Otherwise fall through to refill rotation below (started may
			// be nil only if no started stream needs service, in which case
			// the rotation cannot progress and the newcomer is served).
			if started == nil {
				return fresh, now
			}
		}
	}
	// Idle long enough that laziness matters: wake at the latest start
	// that still lets every due buffer be refilled in deadline order.
	// The deadline index evaluates the rule over its ascending deadline
	// sequence; only the Fixed-Stretch ablation, whose waiting newcomers
	// count as due-at-admission, needs their (also ascending) deadlines
	// merged in and scanned plainly (a gated BubbleUp newcomer does not:
	// it waits for slack, it is not due).
	var start si.Seconds
	if fresh != nil && !p.bubbleUp {
		start = latestStartSorted(mergeFreshDeadlines(p.d), w)
	} else {
		start = p.d.deadlines.lazyStart(w)
	}
	if fresh != nil && dlAware && start >= now {
		// The backlog affords the inserted service: pushed back by one
		// worst service it still makes every deadline with a service-time
		// to spare (latestStartSorted embeds the 2w cushion). In a cluster
		// catch-up the deep-tail minimum drives start below now and blocks
		// the insert — the case the earliest-deadline check cannot see.
		return fresh, now
	}
	if room := p.d.roomAt(started); start < room {
		start = room
	}
	if start < now {
		start = now
	}
	return started, start
}

// mergeFreshDeadlines merges the started streams' deadlines with the
// waiting fresh streams' admission-time deadlines, both ascending, into
// one sorted sequence (the Fixed-Stretch lazy-start input), built in the
// disk's dlMerge scratch.
func mergeFreshDeadlines(d *Disk) []si.Seconds {
	scratch := d.dlMerge[:0]
	i, fr := 0, d.fresh[d.freshHead:]
	for _, dl := range d.deadlines.ascending() {
		for ; i < len(fr); i++ {
			f := fr[i]
			if f.started || !f.needService() {
				continue
			}
			if f.deadline > dl {
				break
			}
			scratch = append(scratch, f.deadline)
		}
		scratch = append(scratch, dl)
	}
	for ; i < len(fr); i++ {
		if f := fr[i]; !f.started && f.needService() {
			scratch = append(scratch, f.deadline)
		}
	}
	d.dlMerge = scratch
	return scratch
}

// sweepScheduler is Sweep*: service periods are formed from every stream
// needing service, ordered by disk position; new requests join only the
// next period; each service within the period starts as late as the
// remaining deadlines allow, which delays the period's tail the way
// Sweep* prescribes.
type sweepScheduler struct {
	d      *Disk
	period []*Stream
	idx    int
}

func (p *sweepScheduler) Admit(*Stream)  {}
func (p *sweepScheduler) Remove(*Stream) {}
func (p *sweepScheduler) CanAdmit() bool { return p.idx >= len(p.period) }
func (p *sweepScheduler) OnServiced(st *Stream) {
	if p.idx < len(p.period) && p.period[p.idx] == st {
		p.idx++
	}
}

func (p *sweepScheduler) Next(now si.Seconds) (*Stream, si.Seconds) {
	// Skip members that departed or finished since formation.
	for p.idx < len(p.period) && !p.period[p.idx].needService() {
		p.idx++
	}
	if p.idx >= len(p.period) {
		if !p.form() {
			return nil, 0
		}
	}
	st := p.period[p.idx]
	if p.idx > 0 {
		// Periods are compact: once started, services run back-to-back.
		// Compact fills align the members' deadlines for the next period
		// (each deadline = fill + T), which is what makes Sweep* periodic
		// — and is the schedule Theorem 3's memory peak describes.
		return st, now
	}
	// A waiting newcomer pulls the period forward: Eq. 3's worst wait is
	// two service batches (the current one and the next, which includes
	// the newcomer), not two full usage periods — top-up fills make the
	// early period cheap for the other members.
	start := batchLazyStart(p.d, p.period, now, 0, true)
	return st, start
}

// form assembles the next service period in sweep order. Every stream
// still fetching data joins — Sweep* refills all n buffers once per
// period, which is precisely why Theorem 3's memory peak holds n−1 full
// buffers. Period spacing emerges from the lazy start: the next period
// begins only when the earliest deadline forces it, about one usage
// period after the last.
func (p *sweepScheduler) form() bool {
	p.period = p.period[:0]
	for _, st := range p.d.streams {
		if st.needService() {
			p.period = append(p.period, st)
		}
	}
	p.idx = 0
	if len(p.period) == 0 {
		return false
	}
	sortByCylinder(p.d, p.period)
	return true
}

// gssScheduler is GSS*: streams are partitioned into groups of at most g;
// groups are serviced round-robin (BubbleUp across groups), members of
// the group in service are swept. New requests join the first upcoming
// group with spare room so they are serviced with the next group.
type gssScheduler struct {
	d      *Disk
	groups [][]*Stream
	cur    int // index of the group currently being swept; -1 when none
	sweep  []*Stream
	idx    int
}

func (p *gssScheduler) CanAdmit() bool { return p.idx >= len(p.sweep) }

func (p *gssScheduler) Admit(st *Stream) {
	g := p.d.sys.cfg.Method.Group
	for i := 1; i <= len(p.groups); i++ {
		gi := (p.cur + i) % len(p.groups)
		if gi == p.cur {
			continue // the group in service formed without st
		}
		if len(p.groups[gi]) < g {
			p.groups[gi] = append(p.groups[gi], st)
			return
		}
	}
	p.groups = append(p.groups, []*Stream{st})
}

func (p *gssScheduler) Remove(st *Stream) {
	for gi, members := range p.groups {
		for i, o := range members {
			if o != st {
				continue
			}
			p.groups[gi] = append(members[:i], members[i+1:]...)
			if len(p.groups[gi]) == 0 {
				p.groups = append(p.groups[:gi], p.groups[gi+1:]...)
				// Keep cur pointing at the group that was last swept so
				// rotation resumes at its successor: slide it back when
				// the removed group was at or before it, or when the
				// slice shrank past it.
				if gi <= p.cur || p.cur >= len(p.groups) {
					p.cur--
				}
			}
			return
		}
	}
}

func (p *gssScheduler) OnServiced(st *Stream) {
	if p.idx < len(p.sweep) && p.sweep[p.idx] == st {
		p.idx++
	}
}

func (p *gssScheduler) Next(now si.Seconds) (*Stream, si.Seconds) {
	for p.idx < len(p.sweep) && !p.sweep[p.idx].needService() {
		p.idx++
	}
	if p.idx >= len(p.sweep) && !p.advance() {
		return nil, 0
	}
	st := p.sweep[p.idx]
	if p.idx > 0 {
		return st, now // compact group sweeps, as in the Sweep* period
	}
	// A group's sweep can be blocked by other groups' non-preemptive
	// sweeps when their due times cluster; earliest-deadline group
	// selection keeps the queue short, so two group-sweeps of headroom
	// absorb it without refilling far ahead of need (which would inflate
	// memory well past Theorem 4). A group holding a fresh member sweeps
	// immediately: BubbleUp across groups services a newcomer with the
	// very next group (Eq. 4).
	queued := len(p.groups) - 1
	if queued > 2 {
		queued = 2
	}
	if queued < 1 {
		queued = 1
	}
	blocking := si.Seconds(queued*p.d.sys.cfg.Method.Group) * p.d.worstService(p.d.n())
	start := batchLazyStart(p.d, p.sweep, now, blocking, true)
	return st, start
}

// advance picks the group to sweep next: the one whose neediest member
// has the earliest deadline, with rotation distance from the last swept
// group breaking ties. In steady state GSS* group deadlines follow the
// rotation, so this is the round-robin order; under churn (members joining
// mid-rotation, departures) it prevents an overdue group from waiting out
// a full rotation behind freshly refilled ones.
func (p *gssScheduler) advance() bool {
	if len(p.groups) == 0 {
		return false
	}
	bestGi := -1
	var bestD si.Seconds
	for i := 1; i <= len(p.groups); i++ {
		gi := ((p.cur+i)%len(p.groups) + len(p.groups)) % len(p.groups)
		for _, st := range p.groups[gi] {
			if !st.needService() {
				continue
			}
			if d := p.d.deadlineOf(st); bestGi < 0 || d < bestD {
				bestGi, bestD = gi, d
			}
		}
	}
	p.sweep = p.sweep[:0]
	p.idx = 0
	if bestGi < 0 {
		return false
	}
	// The whole group is swept together; repeated joint fills align the
	// members' phases, which is what makes GSS*'s rotation periodic.
	for _, st := range p.groups[bestGi] {
		if st.needService() {
			p.sweep = append(p.sweep, st)
		}
	}
	sortByCylinder(p.d, p.sweep)
	p.cur = bestGi
	return true
}

// cylSorter sorts a batch of streams by (cylinder of next read, id), a
// total order, with the key slice kept on the disk so period formation
// allocates nothing in steady state.
type cylSorter struct {
	batch []*Stream
	keys  []int
}

func (s *cylSorter) Len() int { return len(s.batch) }
func (s *cylSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	return s.batch[i].id < s.batch[j].id
}
func (s *cylSorter) Swap(i, j int) {
	s.batch[i], s.batch[j] = s.batch[j], s.batch[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// sortByCylinder orders streams by the disk position of their next read,
// ties by id. No two streams share an id, so the (cylinder, id) order is
// total and any sort algorithm yields the same deterministic permutation.
func sortByCylinder(d *Disk, batch []*Stream) {
	s := &d.cylSort
	s.batch = batch
	s.keys = s.keys[:0]
	for _, st := range batch {
		s.keys = append(s.keys, d.sys.cfg.Spec.CylinderOf(st.place.DiskOffset(st.delivered, 0)))
	}
	sort.Sort(s)
	s.batch = nil
}

// batchLazyStart computes the latest safe start for servicing the given
// batch sequentially in its (possibly deadline-adversarial) order: every
// deadline, sorted ascending, must leave room for the services before it.
func batchLazyStart(d *Disk, batch []*Stream, now si.Seconds, blocking si.Seconds, freshNow bool) si.Seconds {
	// Only started members anchor the start time: a fresh request's first
	// fill rides along with the batch. With freshNow set, any fresh
	// member starts the batch immediately (GSS*'s BubbleUp across
	// groups); otherwise fresh members wait for the batch's natural
	// schedule but their service time still consumes batch room.
	w := d.worstService(d.n())
	fresh, startedCount := 0, 0
	for _, st := range batch {
		if !st.needService() {
			continue
		}
		if st.started {
			startedCount++
		} else {
			fresh++
		}
	}
	if startedCount == 0 || (freshNow && fresh > 0) {
		return now // only fresh members, or a newcomer demands the sweep
	}
	// The batch executes in the given (cylinder) order, so each member i
	// must be reachable within (i+1) worst services of the start. The
	// per-service worst DL for a sweep assumes equally spaced data; the
	// retrace to the batch's first cylinder and one adversarial jump are
	// outside that model, so batches also get that much headroom, plus
	// whatever non-preemptive blocking the caller anticipates, plus the
	// standard admission cushion.
	cushion := 2*d.sys.cfg.Spec.WorstSeek() + blocking + lazyMarginServices*w
	var start si.Seconds
	pos := 0
	set := false
	for _, st := range batch {
		if !st.needService() {
			continue
		}
		pos++
		if !st.started {
			continue
		}
		cand := d.deadlineOf(st) - si.Seconds(pos)*w - cushion
		if room := d.roomAt(st); cand < room {
			cand = room // never refill a buffer that has not drained
		}
		if !set || cand < start {
			start, set = cand, true
		}
	}
	if start < now {
		start = now
	}
	return start
}
