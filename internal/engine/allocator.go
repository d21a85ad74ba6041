package engine

import (
	"repro/internal/core"
	"repro/internal/si"
)

// Allocator is a buffer allocation scheme: how large the next buffer is,
// what size worst-case service planning should assume, and whether the
// scheme's admission rules allow one more request. The paper's three
// schemes — static (Section 2.3), dynamic (Section 3, the contribution),
// and the naive strawman (Section 3.1) — are provided, plus the
// memory-knee cap on the dynamic scheme; an Allocator is chosen per
// engine System via Config.
//
// Size may record per-allocation bookkeeping on the disk (the dynamic
// scheme's inertia snapshot and prediction-success entry); Admit and
// PlanSize must not mutate anything other than the disk's k_log cache.
// The engine always passes d's current in-service count as n; the schemes
// here size at the equivalent load each rate sees (Disk.effLoad), which
// is n itself while every stream runs at one rate.
type Allocator interface {
	// Size computes the buffer size for the next service of st when n
	// requests are in service, recording whatever bookkeeping the scheme
	// needs (inertia snapshots, prediction estimates).
	Size(d *Disk, st *Stream, n int) si.Bits
	// PlanSize is the buffer size worst-case service planning assumes at
	// load n — the term feeding the lazy-start and admission cushions.
	PlanSize(d *Disk, n int) si.Bits
	// Admit reports whether the scheme's runtime enforcement allows
	// admitting one more request when n are in service. Capacity (n < N)
	// is checked by the engine; this is the scheme-specific rule
	// (Assumption 1 for the dynamic scheme, always true otherwise).
	Admit(d *Disk, n int) bool
}

// StaticAllocator always allocates the full-load buffer size BS(N)
// (Section 2.3): correct at any load, maximally wasteful below full load.
type StaticAllocator struct{}

// Size returns BS(N) regardless of load — the stream's own rate's
// full-load size.
func (StaticAllocator) Size(d *Disk, st *Stream, n int) si.Bits { return st.ctx.staticSize }

// PlanSize returns BS(N): static planning assumes the worst everywhere
// (the widest full-load size among the rates in service).
func (StaticAllocator) PlanSize(d *Disk, n int) si.Bits { return d.planOverLive(fullLoad, 0, 0) }

// Admit always accepts; the capacity bound N is enforced upstream.
func (StaticAllocator) Admit(d *Disk, n int) bool { return true }

// DynamicAllocator is the paper's predict-and-enforce scheme (Section 3):
// buffers sized by Theorem 1 for the current load n and the estimate kc of
// near-future additional requests, with the inertia snapshot recorded for
// runtime enforcement and violating admissions deferred (Fig. 5).
type DynamicAllocator struct{}

// Size evaluates Theorem 1 at (n, kc) with kc from the disk's estimator,
// records the stream's inertia snapshot for enforcement, and logs the
// estimate for prediction-success scoring.
func (DynamicAllocator) Size(d *Disk, st *Stream, n int) si.Bits {
	kc := d.Estimate(n)
	size := d.sizeAt(st.ctx, theorem1, 0, kc)
	d.book.Set(st.id, core.Allocation{N: n, K: kc})
	if d.budget != nil {
		// Churn-safe enforcement: this fill opens a fresh k_i admission
		// budget, charged from the disk's current admission count.
		d.budget.Set(st.id, core.Allocation{N: d.admits, K: kc})
	}
	d.recordEstimate(size, kc)
	return size
}

// PlanSize returns the worst-case buffer size sweep planning must
// assume for a disk at load n under the dynamic scheme's rules.
func (DynamicAllocator) PlanSize(d *Disk, n int) si.Bits {
	// Plan with the Assumption-2 worst future prediction: no service in
	// the batch can allocate with k above min_i(k_i) + alpha (that is what
	// the estimator enforces), exactly the headroom the recurrence's
	// BS_{k+alpha} term models.
	k := d.book.MinK()
	if k > 2*d.sys.params.N {
		k = d.Estimate(n) // empty book: fall back to the estimate
	}
	k += d.sys.params.Alpha
	floor := 0
	if d.sys.cfg.RampAwarePlanning {
		// Plan at the admission window's full load, not today's: the
		// enforcement admits up to min_i(n_i+k_i) concurrent streams,
		// and a fill late in the coming round allocates at whatever
		// load the window has reached by then (see
		// Config.RampAwarePlanning).
		floor = d.book.MinNK()
	}
	return d.planOverLive(theorem1, floor, k)
}

// Admit applies the Fig. 5 enforcement rule: an arrival may enter only
// if it keeps every in-service stream's inertia snapshot honest (and,
// under churn-safe budgets, every open fill's admission budget).
func (DynamicAllocator) Admit(d *Disk, n int) bool {
	if !core.Admit(d.book, n, d.sys.admitCap) {
		return false
	}
	return d.budget == nil || core.AdmitBudget(d.budget, d.admits)
}

// NaiveAllocator is the flawed strawman of Section 3.1: Eq. 5 evaluated at
// n+k with no recurrence and no enforcement. It underruns under rising
// load — the failure (Fig. 3) that motivates the dynamic scheme.
type NaiveAllocator struct{}

// Size evaluates Eq. 5 directly at n+kc — the flaw: no recurrence, so a
// stream sized now is not protected against arrivals sized later.
func (NaiveAllocator) Size(d *Disk, st *Stream, n int) si.Bits {
	kc := d.Estimate(n)
	size := d.sizeAt(st.ctx, eq5, 0, kc)
	d.recordEstimate(size, kc)
	return size
}

// PlanSize mirrors Size for sweep planning.
func (NaiveAllocator) PlanSize(d *Disk, n int) si.Bits { return d.planOverLive(eq5, 0, d.Estimate(n)) }

// Admit always accepts — the absent enforcement is the point.
func (NaiveAllocator) Admit(d *Disk, n int) bool { return true }

// KneeAllocator is the memory-knee-aware fourth scheme (DESIGN.md §7, the
// memory knee): the dynamic scheme's sizing and enforcement with admission
// capped near the Theorem 1 memory knee — by default half the disk's
// stream capacity and half its transfer rate — so the disk never climbs
// the steep half of the memory curve. It trades peak concurrency for
// per-stream buffers an order of magnitude smaller near the cap, and pairs
// naturally with downgrading admission: capped capacity converts into
// lower rungs instead of rejections.
type KneeAllocator struct {
	DynamicAllocator

	// Fraction positions the cap: admissions stop at Fraction·N committed
	// streams and Fraction·TR committed bandwidth.
	// <= 0 means the knee default 0.5; values above 1 are clamped to 1.
	Fraction float64
}

// admissionCapper lets an allocator lower the engine's admission
// capacities; the engine consults it once at construction.
type admissionCapper interface {
	AdmitCapCount(n int) int
	AdmitCapBandwidth(tr si.BitRate) si.BitRate
}

func (a KneeAllocator) fraction() float64 {
	f := a.Fraction
	if f <= 0 {
		f = 0.5
	}
	if f > 1 {
		f = 1
	}
	return f
}

// AdmitCapCount caps committed streams at ⌊Fraction·n⌋ (floor 1).
func (a KneeAllocator) AdmitCapCount(n int) int {
	c := int(a.fraction() * float64(n))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// AdmitCapBandwidth caps committed consumption bandwidth at Fraction·TR.
func (a KneeAllocator) AdmitCapBandwidth(tr si.BitRate) si.BitRate {
	return si.BitRate(a.fraction() * float64(tr))
}
