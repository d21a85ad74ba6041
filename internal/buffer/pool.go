// Package buffer implements the shared memory pool of the VOD server
// model (Section 2.1): every request owns one buffer, buffers share the
// server's memory, and memory is released continuously as the stream
// consumes data (the use-it-and-toss-it policy). Allocation is by
// variable-length units, as the paper assumes; page rounding is a
// negligible refinement it explicitly sets aside.
//
// Buffer levels drain linearly at the stream's consumption rate, so the
// pool stores each buffer as (level at last touch, touch time) and
// evaluates lazily. An underrun — the level hitting zero before the next
// fill lands — is the failure the paper's sizing theorems exist to
// prevent; the pool records every underrun and how long the stream
// starved, and the simulation's correctness tests assert the count stays
// zero whenever the inertia assumptions are enforced.
package buffer

import (
	"fmt"
	"math"

	"repro/internal/si"
)

// Pool is the shared memory of one server. It is not safe for concurrent
// use; in the simulator each pool belongs to one server process.
type Pool struct {
	budget  si.Bits     // 0 means unlimited
	page    si.Bits     // allocation granularity; 0 means exact (variable length)
	pinned  si.Bits     // resident outside any stream (prefix cache)
	streams map[int]int // stream id -> position in order
	// order holds the states densely in a deterministic order (attach
	// order with swap-removal) so Usage sums floats identically across
	// runs — map iteration order would make high-water marks seed-
	// dependent — and walks contiguous memory. Detached slots are reused
	// by later attaches, so a long-running pool's bookkeeping is
	// allocation-free in steady state.
	order      []state
	underruns  int
	starved    si.Seconds
	highWater  si.Bits
	highAt     si.Seconds
	tol        si.Seconds // underrun grace; 0 means UnderrunTolerance
	onUnderrun func(id int, now, gap si.Seconds)

	// lastID/lastPos remember the lookup must resolved most recently: the
	// engine touches one stream several times per fill phase, and the
	// repeats skip the map. lastPos < 0 means nothing is remembered;
	// Attach and Detach, which change the id -> position mapping, reset it.
	lastID, lastPos int

	// The anchor is BeginFill's last exact walk, which bounded turns into
	// the bound that lets later fills skip theirs: anchorU is its sum plus
	// every fill reserved since, anchorAt its instant, anchorRate the rates
	// of the streams then playing out of a non-empty buffer, anchorDry when
	// the first runs dry, anchorLeft the skips still granted (0: no anchor).
	anchorU             si.Bits
	anchorAt, anchorDry si.Seconds
	anchorRate          si.BitRate
	anchorLeft          int
}

// anchorSlack is bounded's relative margin; the rounding it covers (a sum
// over <= ~1600 streams plus at most anchorSkips additions) is under 1e-11.
const anchorSlack, anchorSkips = 1e-9, 1 << 16

type state struct {
	id       int // stream id, for the underrun callback and swap-removal
	rate     si.BitRate
	level    si.Bits
	touched  si.Seconds
	emptyAt  si.Seconds // level's zero crossing if never refilled
	reserved si.Bits    // in-flight fill reservation
	pending  bool       // a fill (possibly zero-sized) is in flight
	started  bool       // first fill has landed; consumption is running
	starving bool       // started but the buffer ran dry
}

// UnderrunTolerance is the grace within which a buffer's zero crossing is
// treated as an exact hand-to-mouth refill rather than starvation. One
// millisecond is far below anything a viewer (or the paper's analysis,
// whose latencies are tens of milliseconds and up) can observe, and far
// above float64 time jitter.
const UnderrunTolerance si.Seconds = 1e-3

// NewPool returns a pool with the given memory budget; budget 0 means
// unlimited (the latency experiments run without a memory constraint).
// Memory is accounted by the exact variable-length unit, the paper's
// simplifying assumption (Section 2.1).
func NewPool(budget si.Bits) *Pool {
	return NewPagedPool(budget, 0)
}

// NewPagedPool returns a pool that accounts memory by whole pages of the
// given size, the way a real server allocates (Section 2.1): each
// buffer's footprint is its content rounded up to pages. The paper argues
// the difference from exact accounting is negligible because pages are
// much smaller than buffers; the ablation experiment measures it.
// A page size of 0 means exact accounting.
func NewPagedPool(budget, page si.Bits) *Pool {
	if budget < 0 {
		panic(fmt.Sprintf("buffer: negative budget %v", budget))
	}
	if page < 0 {
		panic(fmt.Sprintf("buffer: negative page size %v", page))
	}
	return &Pool{budget: budget, page: page, streams: make(map[int]int), lastPos: -1}
}

// footprint rounds a content amount up to the pool's allocation unit.
func (p *Pool) footprint(bits si.Bits) si.Bits {
	if p.page <= 0 || bits <= 0 {
		return bits
	}
	pages := si.Bits(int64((bits + p.page - 1) / p.page))
	return pages * p.page
}

// SetUnderrunFunc installs a per-pool underrun callback, invoked with the
// detection time and the starvation gap on every underrun. It is
// owner-scoped: the engine routes it to its Observer so live
// instrumentation never crosses pools.
func (p *Pool) SetUnderrunFunc(fn func(id int, now, gap si.Seconds)) { p.onUnderrun = fn }

// SetUnderrunTolerance overrides the pool's underrun grace (<= 0 restores
// the UnderrunTolerance default). The default is the model's own
// viewer-imperceptible millisecond; a pool paced by a compressed wall
// clock runs with that grace rescaled so it stays a wall millisecond —
// at scale 1200 the default maps to 0.83 wall microseconds, a precision
// no OS timer delivers, and every scheduler wakeup would be charged to
// the paper's model as starvation.
func (p *Pool) SetUnderrunTolerance(tol si.Seconds) {
	if tol <= 0 {
		tol = 0
	}
	p.tol = tol
}

// tolerance reports the pool's effective underrun grace.
func (p *Pool) tolerance() si.Seconds {
	if p.tol > 0 {
		return p.tol
	}
	return UnderrunTolerance
}

// Pin reserves bits of pool memory outside any stream's buffer for the
// pool's lifetime — the sharing layer pins hot titles' prefixes this way,
// so cache residency is charged against the same pool the allocator's
// buffers live in. Pinned memory is rounded up to the pool's allocation
// unit per call and counts toward Usage (and therefore the budget check
// and the high-water mark).
func (p *Pool) Pin(bits si.Bits, now si.Seconds) {
	if bits < 0 {
		panic(fmt.Sprintf("buffer: negative pin %v", bits))
	}
	p.pinned += p.footprint(bits)
	p.anchorLeft = 0
	p.note(p.Usage(now), now)
}

// Pinned reports the pool's pinned memory.
func (p *Pool) Pinned() si.Bits { return p.pinned }

// PageSize reports the allocation granularity (0 = exact).
func (p *Pool) PageSize() si.Bits { return p.page }

// Budget reports the pool's configured budget (0 = unlimited).
func (p *Pool) Budget() si.Bits { return p.budget }

// Attach registers a stream consuming at the given rate. Its buffer starts
// empty and consumption starts at the first fill. Attaching an existing
// id panics: stream ids are unique for a request's lifetime.
func (p *Pool) Attach(id int, rate si.BitRate, now si.Seconds) {
	if rate <= 0 {
		panic(fmt.Sprintf("buffer: stream %d with non-positive rate %v", id, rate))
	}
	if _, ok := p.streams[id]; ok {
		panic(fmt.Sprintf("buffer: stream %d already attached", id))
	}
	p.streams[id] = len(p.order)
	p.lastPos = -1
	p.order = append(p.order, state{id: id, rate: rate, touched: now, emptyAt: now})
}

// Detach releases everything the stream holds and forgets it.
func (p *Pool) Detach(id int, now si.Seconds) {
	p.drain(p.must(id), now)
	i, last := p.streams[id], len(p.order)-1
	delete(p.streams, id)
	p.lastPos, p.anchorLeft = -1, 0
	if i != last {
		p.order[i] = p.order[last]
		p.streams[p.order[i].id] = i
	}
	p.order = p.order[:last]
}

// drain advances a stream's level to now, recording any underrun once per
// starvation episode.
func (p *Pool) drain(s *state, now si.Seconds) {
	if now < s.touched {
		panic(fmt.Sprintf("buffer: clock moved backward (%v < %v)", now, s.touched))
	}
	if !s.started {
		// Consumption has not begun; waiting for the first fill is
		// initial latency, not starvation.
		s.touched = now
		return
	}
	if s.starving {
		// Ran dry earlier and is still waiting for a fill.
		p.starved += now - s.touched
		s.touched = now
		return
	}
	consumed := s.rate.DataIn(now - s.touched)
	if consumed >= s.level {
		// Ran dry at emptyAt. A zero crossing within the tolerance is a
		// clean hand-to-mouth refill (or a departure landing exactly as
		// the buffer empties), not starvation.
		if gap := now - s.emptyAt; gap > p.tolerance() {
			p.underruns++
			p.starved += gap
			if p.onUnderrun != nil {
				p.onUnderrun(s.id, now, gap)
			}
		}
		s.level = 0
		s.starving = true
	} else {
		s.level -= consumed
	}
	s.touched = now
}

// BeginFill reserves memory for a fill of the given size. It reports
// false, reserving nothing, when the reservation would take the pool's
// usage past the budget. A stream can have at most one fill in flight.
// The one Usage walk serves both the budget check and the high-water
// sample; an exact unbudgeted pool skips both whenever bounded proves the
// sample no record, and else walks with anchor, which returns Usage's sum.
func (p *Pool) BeginFill(id int, size si.Bits, now si.Seconds) bool {
	s := p.must(id)
	if size < 0 {
		panic(fmt.Sprintf("buffer: negative fill %v", size))
	}
	if s.pending {
		panic(fmt.Sprintf("buffer: stream %d already has a fill in flight", id))
	}
	p.drain(s, now)
	s.reserved, s.pending = size, true
	if p.budget > 0 || p.page > 0 {
		u := p.Usage(now)
		if p.budget > 0 && u > p.budget {
			s.reserved, s.pending = 0, false
			return false
		}
		p.note(u, now)
	} else if !p.bounded(size, now) {
		p.note(p.anchor(now), now)
	}
	return true
}

// bounded charges a newly reserved fill to the anchor and reports whether
// usage at now is provably no record, so that note would do nothing. Since
// the anchor's walk memory grew only by the fills reserved, and each stream
// in anchorRate drained at its rate at least until anchorDry (a refill moves
// a zero crossing later; SetRate, Pin and Detach drop the anchor). Hence
// Usage(now) <= anchorU - anchorRate*(min(now, anchorDry) - anchorAt) up to
// the slack, whose anchorRate*now term covers an ulp of time per crossing.
func (p *Pool) bounded(size si.Bits, now si.Seconds) bool {
	if p.anchorLeft == 0 {
		return false
	}
	p.anchorLeft--
	p.anchorU += size
	bound := p.anchorU - p.anchorRate.DataIn(min(now, p.anchorDry)-p.anchorAt)
	return bound+anchorSlack*(p.anchorU+p.anchorRate.DataIn(now)) < p.highWater
}

// anchor is Usage on an exact pool, same terms in the same order, that also
// records the walk as the anchor — off the float-add chain that paces it.
func (p *Pool) anchor(now si.Seconds) si.Bits {
	total, rate, dry := p.pinned, si.BitRate(0), si.Seconds(math.Inf(1))
	for i := range p.order {
		s := &p.order[i]
		held := s.reserved
		if s.started && !s.starving {
			if level := s.level - s.rate.DataIn(now-s.touched); level > 0 {
				held += level
				rate += s.rate
				if s.emptyAt < dry {
					dry = s.emptyAt
				}
			}
		}
		total += held
	}
	p.anchorU, p.anchorAt, p.anchorRate, p.anchorDry, p.anchorLeft = total, now, rate, dry, anchorSkips
	return total
}

// CompleteFill lands the in-flight fill: the reserved data becomes buffer
// level and consumption (re)starts if the stream was starving. Moving a
// reservation into the level at one instant leaves Usage unchanged, so
// there is no high-water sample here.
func (p *Pool) CompleteFill(id int, now si.Seconds) {
	s := p.must(id)
	if !s.pending {
		panic(fmt.Sprintf("buffer: stream %d has no fill in flight", id))
	}
	p.drain(s, now)
	s.level += s.reserved
	s.reserved = 0
	s.pending = false
	s.started = true
	s.starving = false
	s.emptyAt = now + s.rate.TimeToTransfer(s.level)
}

// SetRate changes a stream's consumption rate mid-viewing — the engine's
// mid-stream bitrate switch. The buffer is drained at the old rate up to
// now first, so consumption history stays charged to the rate that
// actually consumed it; the remaining level drains at the new rate from
// now on, and the buffer's zero crossing moves accordingly (later after a
// down-switch, earlier after an up-switch). An in-flight fill is
// unaffected: its reservation was sized by the caller, and it lands into
// the level as usual at CompleteFill.
func (p *Pool) SetRate(id int, rate si.BitRate, now si.Seconds) {
	if rate <= 0 {
		panic(fmt.Sprintf("buffer: stream %d switched to non-positive rate %v", id, rate))
	}
	s := p.must(id)
	p.drain(s, now)
	s.rate = rate
	p.anchorLeft = 0
	if s.started && !s.starving {
		s.emptyAt = now + rate.TimeToTransfer(s.level)
	}
}

// Level reports a stream's buffer level at time now (without recording
// underruns — it is a read-only probe).
func (p *Pool) Level(id int, now si.Seconds) si.Bits {
	s := p.must(id)
	if !s.started || s.starving {
		return 0
	}
	level := s.level - s.rate.DataIn(now-s.touched)
	if level < 0 {
		level = 0
	}
	return level
}

// EmptyAt reports when the stream's buffer runs dry if never refilled.
// Streams with no live data — fresh or starving — report the moment they
// last had any, i.e. they are already due.
func (p *Pool) EmptyAt(id int) si.Seconds { return p.must(id).emptyAt }

// Usage reports total memory in use at now: live buffer levels plus
// in-flight reservations, each stream's holdings rounded up to the
// pool's allocation unit, plus any pinned memory.
func (p *Pool) Usage(now si.Seconds) si.Bits {
	total := p.pinned
	for i := range p.order {
		s := &p.order[i]
		held := s.reserved
		if s.started && !s.starving {
			if level := s.level - s.rate.DataIn(now-s.touched); level > 0 {
				held += level
			}
		}
		total += p.footprint(held)
	}
	return total
}

// note records a usage sample for the high-water mark. Reserving a fill
// and pinning are the only events that increase usage — levels only
// drain in between, and a landing fill merely moves its reservation into
// the level — so sampling at BeginFill and Pin captures the true peak.
func (p *Pool) note(u si.Bits, now si.Seconds) {
	if u > p.highWater {
		p.highWater, p.highAt = u, now
	}
}

// Stats summarizes a pool's history.
type Stats struct {
	Underruns   int
	Starved     si.Seconds
	HighWater   si.Bits
	HighWaterAt si.Seconds
	Streams     int
}

// Stats returns the pool's accumulated statistics.
func (p *Pool) Stats() Stats {
	return Stats{
		Underruns:   p.underruns,
		Starved:     p.starved,
		HighWater:   p.highWater,
		HighWaterAt: p.highAt,
		Streams:     len(p.streams),
	}
}

// Len reports the number of attached streams.
func (p *Pool) Len() int { return len(p.streams) }

// must returns id's state record. The pointer aims into order, so it is
// valid only until the next Attach or Detach.
func (p *Pool) must(id int) *state {
	if id == p.lastID && p.lastPos >= 0 {
		return &p.order[p.lastPos]
	}
	i, ok := p.streams[id]
	if !ok {
		panic(fmt.Sprintf("buffer: unknown stream %d", id))
	}
	p.lastID, p.lastPos = id, i
	return &p.order[i]
}
