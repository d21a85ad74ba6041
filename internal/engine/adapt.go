package engine

import (
	"fmt"

	"repro/internal/si"
)

// AdaptConfig parameterizes mid-stream bitrate adaptation: the
// buffer-occupancy-driven rate map of Netflix's buffer-based algorithm
// (Huang et al., SIGCOMM 2014) transplanted into the server's scheduler.
// At the start of each service of a started stream the disk looks at how
// much playback time the stream's buffer has left. Below the reservoir
// the stream steps one rung down its title's ladder — its next fill is
// immediately sized against the lower rung's rate context, the paper's
// mid-flight buffer resize. Steps back up are decided at fill
// completions, when the buffer is full and the re-rated drain is at its
// safest: after Sustain consecutive completions with committed-bandwidth
// headroom for the higher rung the stream steps up, never above the rung
// the viewer originally requested — the hysteresis band that keeps the
// policy from flapping at a capacity edge.
//
// Adaptation requires a multi-rate system (Config.Rates): a uniform-rate
// system has no rungs to switch across. With Adapt nil the engine runs
// exactly the PR 9 code paths, byte-identically — the goldens pin this.
type AdaptConfig struct {
	// Reservoir is the down-switch threshold, measured in worst-case
	// service times at the disk's current load (the same unit the
	// scheduler's own lazy-start cushion uses): when a started stream
	// enters service with less than Reservoir×w of playback left in its
	// buffer, it steps down one rung. The scheduler plans refills to land
	// lazyMarginServices (2) service times early, and admission bursts
	// routinely erode a service or so of that cushion, so the reservoir
	// must sit well below it: 0 selects the default of 0.25 — a stream
	// a quarter-service from starvation is past what scheduling slack can
	// recover, while anything looser sheds rate on ordinary peak-time
	// jitter and parks the whole disk at the ladder floor.
	// Must not be negative.
	Reservoir float64

	// Headroom bounds how far up-switching may grow the disk's committed
	// bandwidth: a step above the stream's standing booking is considered
	// only while it would leave the committed bandwidth at or below
	// Headroom×cap (and strictly below the cap itself, the admission
	// invariant). The gap between Headroom and 1 is reserved for
	// arrivals, so upgrades never race admissions to the last slot.
	// Recovery steps within the booking (climbing back from a distress
	// down-switch, which never releases its booking) skip this gate —
	// the bandwidth is already reserved. 0 selects the default of 0.95;
	// must be in (0, 1].
	Headroom float64

	// Sustain is how many consecutive fill completions of one stream must
	// see up-switch bandwidth headroom before the switch is taken. Any
	// completion without headroom — and any switch — resets the count.
	// Completions are usage-period-spaced (minutes apart at load), so
	// the count spans a meaningful quiet stretch: 0 selects the default
	// of 8, roughly an hour of sustained headroom at peak spacing —
	// shorter runs step streams up at a receding peak's ragged edge,
	// where the extra drain lands on buffers sized for the crush and
	// converts straight into rebuffers. Must not be negative.
	Sustain int
}

// upAdmitSlack is the admission-boundary room, in services, an
// expansion up-switch must leave behind (see adaptUp).
const upAdmitSlack = 8

// withDefaults returns the config with zero fields replaced by defaults,
// or an error for out-of-range settings.
func (a AdaptConfig) withDefaults() (AdaptConfig, error) {
	if a.Reservoir == 0 {
		a.Reservoir = 0.25
	}
	if a.Headroom == 0 {
		a.Headroom = 0.95
	}
	if a.Sustain == 0 {
		a.Sustain = 8
	}
	if a.Reservoir < 0 {
		return a, fmt.Errorf("engine: negative adaptation reservoir %v", a.Reservoir)
	}
	if a.Headroom < 0 || a.Headroom > 1 {
		return a, fmt.Errorf("engine: adaptation headroom %v outside (0, 1]", a.Headroom)
	}
	if a.Sustain < 0 {
		return a, fmt.Errorf("engine: negative adaptation sustain %d", a.Sustain)
	}
	return a, nil
}

// adaptDown runs the rate map's distress side at the start of one
// started stream's service, before the allocator sizes the fill — a
// switch here re-sizes this very fill against the lower rung's context.
// n is the in-service count. Down-switching below the reservoir is
// deliberately rare: the threshold marks a schedule that has already
// burned its lazy-start cushion, not ordinary peak-time jitter (shedding
// rate on jitter converts the disk to a low-rung mix whose longer rounds
// erode everyone's slack — the opposite of relief).
func (d *Disk) adaptDown(st *Stream, now si.Seconds, n int) {
	a := d.sys.adapt
	w := d.worstService(n)
	// The distress judgment lives in the same time frame as the underrun
	// judgment: live drivers compress engine time onto a wall clock and
	// widen the pools' underrun grace so OS timer wobble is not charged
	// to the model (Config.UnderrunTolerance) — a deadline slip inside
	// that grace is scheduling noise there too, not viewer-visible
	// distress, so it must not shed rate either. In the simulator the
	// override is zero and the reservoir stands as configured.
	if d.deadlineOf(st)-now >= si.Seconds(a.Reservoir*float64(w))-d.sys.cfg.UnderrunTolerance {
		return
	}
	// Inside the reservoir: the buffer runs dry within a fraction of one
	// service. Shed rate now; headroom credit does not survive a distress
	// episode.
	st.headroomRun = 0
	d.lastDistress = now
	if to := d.rungBelow(st); to != nil {
		d.switchRate(st, to, now)
	}
}

// adaptUp runs the rate map's recovery side right after one of st's
// fills lands: the buffer is full, so the slack sacrificed to a faster
// drain is at its largest — the one moment a step up cannot squeeze the
// imminent fill (there is none). Three gates, mirroring what a fresh
// admission at the extra bandwidth would face:
//
//   - the committed-bandwidth book must stay at or below Headroom×cap
//     (and strictly below the cap, the admission invariant) — upgrades
//     never race arrivals to the last slot; Sustain consecutive
//     completions must pass this gate before the switch matures;
//   - the scheme's runtime enforcement must have room for one more
//     admission (Fig. 5's inertia rule): every live buffer was sized to
//     absorb at least one unplanned load unit, which is exactly what the
//     re-rated stream becomes for the rest of the current round;
//   - the full buffer, drained at the faster rate, must still outlive
//     the scheduler's whole due window (lazyMarginServices+1 worst
//     services) plus the reservoir — the re-rated stream rejoins the
//     rotation as an ordinary healthy member, not as urgent work.
func (d *Disk) adaptUp(st *Stream, now si.Seconds) {
	a := d.sys.adapt
	to := d.rungAbove(st)
	if to == nil {
		st.headroomRun = 0 // already at the requested rung
		return
	}
	recovery := to.rate <= st.booked
	if extra := to.rate - st.booked; extra > 0 {
		// The step climbs above the stream's standing booking, so it
		// competes with arrivals for uncommitted bandwidth; a recovery
		// within the booking (climbing back from a distress down-switch)
		// spends only what the session already reserved and answers to
		// the Sustain hysteresis and the disk-wide pacing below instead.
		after := d.committedRate + extra
		if after > si.BitRate(a.Headroom*float64(d.sys.bwCap)) || after >= d.sys.bwCap {
			st.headroomRun = 0
			return
		}
	}
	st.headroomRun++
	if st.headroomRun < a.Sustain {
		return
	}
	// The switch is an unplanned extra load unit the live buffers must
	// absorb, exactly like an arrival — but unlike an arrival it does not
	// raise the in-service count, so enforcement would never see it.
	// Check the Fig. 5 rule with the switch counted in: a recovery within
	// the booking (re-climbing after a distress shed) needs room for
	// itself and the next promised admission, while an expansion above
	// the booking is an admission in disguise and must clear
	// upAdmitSlack services of boundary room — at a count-bound disk
	// arrivals will pack whatever sliver the expansion leaves, so it may
	// only proceed when the boundary has a whole burst of slack.
	margin := upAdmitSlack
	if recovery {
		margin = 1
	}
	n := d.n()
	if !d.sys.cfg.Allocator.Admit(d, n+margin) {
		st.headroomRun = 0
		return
	}
	w := d.worstService(n)
	slack := float64(d.deadlineOf(st)-now) * (float64(st.rate) / float64(to.rate))
	if slack < (lazyMarginServices+1+a.Reservoir)*float64(w) {
		st.headroomRun = 0
		return
	}
	// Disk-wide recovery pacing. Distress arrives in storms — one round
	// overload underruns a dozen streams at once, and all of them shed a
	// rung together. Their Sustain counters then mature together too, and
	// without a brake the whole cohort climbs back within a couple of
	// minutes: a synchronized drain jump as unplanned as the storm that
	// caused it, which seeds the next storm. Pace the climb instead: at
	// most one up-switch per usage period disk-wide (each step is then
	// repriced into every later fill before the next step is considered),
	// and none until the disk has been distress-free for two periods.
	// A paced-out candidate keeps its matured count and simply retries at
	// its next completion.
	if now-d.lastDistress < 2*d.lastPeriod || now-d.lastUp < d.lastPeriod {
		return
	}
	d.lastUp = now
	d.switchRate(st, to, now)
}

// rungBelow returns the sizing context of the first rung below st's
// current rate on its title's ladder, or nil at the bottom. Only rungs
// the system has contexts for are considered.
func (d *Disk) rungBelow(st *Stream) *rateCtx {
	for _, rung := range d.sys.cfg.Library.Video(st.req.Video).Rungs() {
		if rung >= st.rate {
			continue
		}
		if c := d.sys.ctxFor(rung); c != nil {
			return c
		}
	}
	return nil
}

// rungAbove returns the sizing context one rung above st's current rate,
// capped at the rung the viewer originally requested, or nil when st
// already serves it. Rungs() walks best-first, so the last qualifying
// rung is the nearest one up.
func (d *Disk) rungAbove(st *Stream) *rateCtx {
	var best *rateCtx
	for _, rung := range d.sys.cfg.Library.Video(st.req.Video).Rungs() {
		if rung <= st.rate || rung > st.want {
			continue
		}
		if c := d.sys.ctxFor(rung); c != nil {
			best = c
		}
	}
	return best
}

// switchRate moves an in-service stream to the rate context to: the
// in-service-bandwidth book and the live-rate counters are re-booked (so
// planOverLive immediately plans against the new mix), the buffer pool
// drains the old rate's history and starts draining the level at the new
// rate, and the stream's remaining demand is re-planned — what the viewer has consumed stays consumed, the rest
// of the viewing time costs the new rate.
//
// The committed-bandwidth book deliberately never shrinks: a down-switch
// keeps the session's standing booking, and an up-switch charges only
// the increment above it. Releasing a distressed stream's bandwidth at a
// congested peak converts straight into extra low-rung admissions, and
// the churn those admissions bring destabilizes the very schedule the
// down-switch tried to relieve — shedding rate protects the viewers
// already in service, it does not grow the audience. After a deep down-switch the
// buffered level may already cover the remaining demand; the stream then
// simply coasts on its buffer until departure (an up-switch can equally
// revive a stream that had fetched its last bit — dlFix re-indexes it
// either way). The stream's next fill is sized against the new context
// (the mid-flight buffer resize).
func (d *Disk) switchRate(st *Stream, to *rateCtx, now si.Seconds) {
	from := st.rate
	d.serviceRate += to.rate - from
	if to.rate > st.booked {
		d.committedRate += to.rate - st.booked
		st.booked = to.rate
	}
	d.rateLive[st.ctx.idx]--
	d.rateLive[to.idx]++
	st.ctx = to
	st.rate = to.rate
	st.headroomRun = 0
	d.pool.SetRate(st.id, to.rate, now)
	st.deadline = d.pool.EmptyAt(st.id)
	consumed := st.delivered - d.pool.Level(st.id, now)
	remaining := st.firstFill + st.req.Viewing - now
	if remaining < 0 {
		remaining = 0
	}
	st.required = maxBits(consumed+to.rate.DataIn(remaining), 1)
	d.dlFix(st)
	d.sys.obs.OnRateSwitch(d.id, st, from, to.rate, now)
	st.rateSince = now
}
