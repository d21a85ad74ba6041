// Package workload generates the user-request traces of Section 5.1:
// requests arrive in a Poisson process whose rate changes every 30 minutes
// following a Zipf distribution over time slots peaking nine hours into
// the day, pick a video by Zipf popularity, and watch for a duration
// uniform in [0, 120] minutes.
//
// Everything is deterministic given a seed, so simulations are exactly
// reproducible; the paper averages five seeds and so does the harness.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/si"
)

// Schedule is a piecewise-constant arrival-rate function over a horizon.
type Schedule struct {
	slotLen si.Seconds
	rates   []float64 // arrivals per second in each slot
}

// NewSchedule builds a schedule directly from per-slot rates.
func NewSchedule(slotLen si.Seconds, rates []float64) Schedule {
	if slotLen <= 0 {
		panic(fmt.Sprintf("workload: non-positive slot length %v", slotLen))
	}
	if len(rates) == 0 {
		panic("workload: empty rate schedule")
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			panic(fmt.Sprintf("workload: bad rate %v in slot %d", r, i))
		}
	}
	return Schedule{slotLen: slotLen, rates: append([]float64(nil), rates...)}
}

// ZipfDay builds the paper's arrival schedule: the horizon is divided into
// 30-minute slots whose share of total arrivals follows a Zipf(theta)
// distribution over the slots' proximity rank to the peak time. theta = 0
// concentrates arrivals tightly around the peak; theta = 1 spreads them
// uniformly (the paper's convention, after Wolf et al.).
func ZipfDay(total float64, theta float64, peak, horizon si.Seconds) Schedule {
	const slot = si.Seconds(30 * 60)
	if total < 0 {
		panic(fmt.Sprintf("workload: negative total arrivals %v", total))
	}
	if horizon < slot {
		panic(fmt.Sprintf("workload: horizon %v shorter than one slot", horizon))
	}
	nSlots := int(float64(horizon) / float64(slot))

	// Rank slots by distance of their center from the peak; nearest gets
	// rank 1 and the largest Zipf weight. Ties break toward earlier slots.
	type slotDist struct {
		idx  int
		dist float64
	}
	order := make([]slotDist, nSlots)
	for i := range order {
		center := (float64(i) + 0.5) * float64(slot)
		order[i] = slotDist{idx: i, dist: math.Abs(center - float64(peak))}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dist != order[j].dist {
			return order[i].dist < order[j].dist
		}
		return order[i].idx < order[j].idx
	})
	weights := catalog.ZipfWeights(nSlots, theta)
	rates := make([]float64, nSlots)
	for rank, sd := range order {
		rates[sd.idx] = total * weights[rank] / float64(slot)
	}
	return Schedule{slotLen: slot, rates: rates}
}

// Rate reports the arrival rate (requests per second) at time t. Times
// beyond the horizon report zero: the day is over.
func (s Schedule) Rate(t si.Seconds) float64 {
	if t < 0 {
		return 0
	}
	i := int(float64(t) / float64(s.slotLen))
	if i >= len(s.rates) {
		return 0
	}
	return s.rates[i]
}

// Horizon reports the schedule's total duration.
func (s Schedule) Horizon() si.Seconds {
	return s.slotLen * si.Seconds(len(s.rates))
}

// Total reports the expected number of arrivals over the horizon.
func (s Schedule) Total() float64 {
	sum := 0.0
	for _, r := range s.rates {
		sum += r * float64(s.slotLen)
	}
	return sum
}

// Request is one generated user request.
type Request struct {
	// ID numbers requests in arrival order, from 0.
	ID int

	// Arrival is the request's arrival time.
	Arrival si.Seconds

	// Video is the requested title's id in the library.
	Video int

	// Disk is the disk holding the title.
	Disk int

	// Viewing is how long the user watches before leaving (the paper's
	// uniform 0–120 minutes).
	Viewing si.Seconds

	// VCR marks a request that continues an existing session after a VCR
	// action (fast forward, rewind, seek). The paper's systems treat VCR
	// actions as new requests (Section 1), so a session with VCR activity
	// appears as a chain of requests; the latency of a VCR request is the
	// VCR response time the paper wants minimized.
	VCR bool

	// Rate is the stream's consumption rate; 0 means "the engine's
	// configured CR" (the paper's single-rate regime). Generate never sets
	// it — drivers that want per-title bitrate ladders stamp it after
	// generation, so legacy traces stay byte-identical.
	Rate si.BitRate
}

// Trace is a complete generated workload.
type Trace struct {
	Requests []Request
	Schedule Schedule
}

// MaxViewing is the paper's viewing-time upper bound.
var MaxViewing = si.Minutes(120)

// VCROptions adds VCR activity to a generated trace: each session
// performs fast-forward/rewind/seek actions as a Poisson process over its
// viewing time, and each action ends the current request and issues a new
// one (the paper's model of VCR functions, Section 1).
type VCROptions struct {
	// ActionsPerHour is the mean VCR actions per viewing hour; zero
	// disables VCR activity.
	ActionsPerHour float64
}

// Generate draws a full trace: Poisson arrivals under the schedule
// (exact for piecewise-constant rates, by restarting the exponential draw
// at slot boundaries), titles from the library's popularity distribution,
// and uniform viewing times capped by the title's length.
func Generate(s Schedule, lib *catalog.Library, seed int64) Trace {
	return GenerateVCR(s, lib, seed, VCROptions{})
}

// GenerateVCR is Generate with VCR activity: sessions whose viewing spans
// a VCR action appear as chains of requests, the continuation requests
// marked VCR.
func GenerateVCR(s Schedule, lib *catalog.Library, seed int64, vcr VCROptions) Trace {
	if vcr.ActionsPerHour < 0 {
		panic(fmt.Sprintf("workload: negative VCR rate %v", vcr.ActionsPerHour))
	}
	rng := rand.New(rand.NewSource(seed))
	// VCR splitting uses its own stream so the underlying session process
	// (arrivals, titles, viewing times) is bit-identical with and without
	// VCR activity — only the segmentation differs.
	vcrRng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	var reqs []Request
	t := si.Seconds(0)
	horizon := s.Horizon()
	for t < horizon {
		rate := s.Rate(t)
		if rate <= 0 {
			// Skip to the next slot boundary.
			next := (math.Floor(float64(t)/float64(s.slotLen)) + 1) * float64(s.slotLen)
			t = si.Seconds(next)
			continue
		}
		gap := si.Seconds(rng.ExpFloat64() / rate)
		slotEnd := si.Seconds((math.Floor(float64(t)/float64(s.slotLen)) + 1) * float64(s.slotLen))
		if t+gap >= slotEnd {
			// The draw crosses into the next slot; by memorylessness we
			// may simply restart there at the new rate.
			t = slotEnd
			continue
		}
		t += gap
		video := lib.Pick(rng.Float64())
		maxView := MaxViewing
		if l := lib.Video(video).Length; l < maxView {
			maxView = l
		}
		viewing := si.Seconds(rng.Float64()) * maxView

		// Split the session at VCR action instants: each boundary ends
		// the running request and issues a continuation request.
		start := t
		isVCR := false
		for viewing > 0 {
			segment := viewing
			if vcr.ActionsPerHour > 0 {
				draw := si.Seconds(vcrRng.ExpFloat64() / vcr.ActionsPerHour * 3600)
				if draw < 1 {
					draw = 1 // floor out pathological sub-second splits
				}
				if draw < segment {
					segment = draw
				}
			}
			reqs = append(reqs, Request{
				ID:      len(reqs),
				Arrival: start,
				Video:   video,
				Disk:    lib.Placement(video).Disk,
				Viewing: segment,
				VCR:     isVCR,
			})
			start += segment
			viewing -= segment
			isVCR = true
		}
	}
	// VCR continuations were appended inline in session order; arrivals
	// across sessions interleave, so restore global arrival order.
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i := range reqs {
		reqs[i].ID = i
	}
	return Trace{Requests: reqs, Schedule: s}
}

// PerDisk splits a trace into per-disk sub-traces, preserving order.
func (tr Trace) PerDisk(disks int) [][]Request {
	out := make([][]Request, disks)
	for _, r := range tr.Requests {
		if r.Disk < 0 || r.Disk >= disks {
			panic(fmt.Sprintf("workload: request %d on disk %d outside [0,%d)", r.ID, r.Disk, disks))
		}
		out[r.Disk] = append(out[r.Disk], r)
	}
	return out
}
