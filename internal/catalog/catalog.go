// Package catalog models the video library of a VOD server: titles with a
// constant consumption rate and length, their contiguous (chunked) layout on
// a disk, their popularity (a Zipf law over titles, following Wolf, Yu &
// Shachnai), and the placement of titles across the disks of a multi-disk
// server.
//
// The paper assumes video data is stored contiguously so one service incurs
// exactly one disk latency; Chang & Garcia-Molina's chunk mechanism makes
// that assumption implementable, and Layout mirrors it: each video occupies
// one contiguous extent, and the cylinder a stream reads from is a pure
// function of its playback position.
package catalog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chunk"
	"repro/internal/diskmodel"
	"repro/internal/si"
)

// Video is one title in the library.
type Video struct {
	// ID is the index of the video in its library (0-based).
	ID int

	// Title is a human-readable name used in output.
	Title string

	// Rate is the consumption rate CR of the encoded stream.
	Rate si.BitRate

	// Length is the playback duration.
	Length si.Seconds

	// Ladder is the title's bitrate ladder: the encodings available for
	// downgrading admission, strictly descending, with Ladder[0] == Rate
	// (the full-quality rung a viewer requests by default). Empty means
	// the title has a single encoding at Rate — the paper's regime.
	Ladder []si.BitRate
}

// Rungs returns the title's available consumption rates, best first. A
// title without a ladder has exactly one rung, its Rate. The returned
// slice is owned by the Video; callers must not mutate it.
func (v Video) Rungs() []si.BitRate {
	if len(v.Ladder) > 0 {
		return v.Ladder
	}
	return []si.BitRate{v.Rate}
}

// Size reports the total encoded size of the video.
func (v Video) Size() si.Bits { return v.Rate.DataIn(v.Length) }

// Placement records where one extent of video data lives on a disk:
// either one contiguous extent starting at Start, or — when the library
// is chunked — a set of fixed-size chunks with replication (footnote 3's
// mechanism), each at its own physical address. A placement normally
// holds the whole video; a striped replica's segment holds the Span bits
// starting From bits into the title (Span == 0 means the whole video).
type Placement struct {
	Video  Video
	Disk   int              // disk index within the server
	Start  si.Bits          // contiguous extent offset (unchunked layouts)
	Chunks *chunk.Placement // non-nil for chunked layouts
	From   si.Bits          // offset of this extent within the video
	Span   si.Bits          // extent length; 0 = the whole video
}

// ContentSize reports how much of the video this placement holds: the
// segment span for striped layouts, the full size otherwise.
func (p *Placement) ContentSize() si.Bits {
	if p.Span > 0 {
		return p.Span
	}
	return p.Video.Size()
}

// DiskOffset maps a read [offset, offset+length) of this placement's
// content to the physical disk address holding it. Offsets are relative
// to the placement (for a whole-title placement that is the video start;
// for a striped segment, the segment start). For chunked placements the
// read is guaranteed to sit inside one chunk; out-of-range reads are
// clamped to the content (simulation positions can overshoot by float
// dust).
func (p *Placement) DiskOffset(offset, length si.Bits) si.Bits {
	size := p.ContentSize()
	if offset < 0 {
		offset = 0
	}
	if offset+length > size {
		if length > size {
			length = size
		}
		offset = size - length
	}
	if p.Chunks == nil {
		return p.Start + offset
	}
	at, err := p.Chunks.DiskOffset(offset, length)
	if err != nil {
		// Unreachable after clamping unless length exceeds the layout's
		// guarantee, which the simulator's configuration check prevents.
		panic(err)
	}
	return at
}

// MaxRead reports the largest single read the placement guarantees to
// serve with one disk latency: unlimited (the content size) for
// contiguous extents, the chunk layout's bound for chunked ones.
func (p *Placement) MaxRead() si.Bits {
	if p.Chunks == nil {
		return p.ContentSize()
	}
	return p.Chunks.Layout.MaxRead()
}

// CylinderAt maps a playback position within this placement's content to
// the cylinder the data for that position occupies, using the disk's
// uniform-density geometry. Out-of-range positions are clamped.
func (p *Placement) CylinderAt(spec diskmodel.Spec, pos si.Seconds) int {
	if pos < 0 {
		pos = 0
	}
	if max := si.Seconds(float64(p.ContentSize()) / float64(p.Video.Rate)); pos > max {
		pos = max
	}
	return spec.CylinderOf(p.DiskOffset(p.Video.Rate.DataIn(pos), 0))
}

// Replica is one materialized copy of a title: a single whole-title
// placement, or — for striped layouts — the title's segments in playback
// order.
type Replica struct {
	Segments []Placement
}

// Library is a set of videos with a popularity distribution and a placement
// across the disks of a server.
type Library struct {
	videos     []Video
	replicas   [][]Replica // per title, every materialized copy
	placements []Placement // primary placement per title (first replica's first segment)
	popularity []float64   // normalized access probability per video
	disks      int
	policy     string
}

// MPEG1Video returns the paper's canonical title: a 120-minute MPEG-1
// stream at 1.5 Mbps.
func MPEG1Video(id int) Video {
	return Video{
		ID:     id,
		Title:  fmt.Sprintf("title-%03d", id),
		Rate:   si.Mbps(1.5),
		Length: si.Minutes(120),
	}
}

// Config parameterizes library construction.
type Config struct {
	// Titles is the number of videos in the library.
	Titles int

	// Disks is the number of disks the library is spread over.
	Disks int

	// Spec is the disk model; every disk is identical, as in the paper.
	Spec diskmodel.Spec

	// PopularityTheta is the Zipf parameter for title popularity.
	// Wolf et al. measured 0.271 for video rental data; 0 is most skewed,
	// 1 is uniform (the paper's convention).
	PopularityTheta float64

	// Video overrides the default MPEG-1 title parameters when non-nil.
	Video func(id int) Video

	// Policy decides the full layout — replication and striping included
	// — when non-nil. The default (nil Policy) is RoundRobin.
	Policy PlacementPolicy

	// ChunkSize, when positive, stores videos as replicated chunks of
	// this size instead of one contiguous extent (footnote 3's layout).
	// It must be at least twice MaxRead.
	ChunkSize si.Bits

	// MaxRead is the largest single read the chunked layout must satisfy
	// within one chunk — at least the largest buffer the server will
	// ever allocate. Required when ChunkSize is set.
	MaxRead si.Bits
}

// New builds a library: Titles videos laid out by the configured
// placement policy (round-robin by default), each extent contiguous, with
// Zipf(theta) popularity. The policy decides the title→disk map (and any
// replication or striping); New owns the physical side — extent offsets
// accumulate per disk in (title, replica, segment) order and capacity is
// checked here — so every policy shares one deterministic, reproducible
// materialization.
func New(cfg Config) (*Library, error) {
	if cfg.Titles <= 0 {
		return nil, fmt.Errorf("catalog: need at least one title, got %d", cfg.Titles)
	}
	if cfg.Disks <= 0 {
		return nil, fmt.Errorf("catalog: need at least one disk, got %d", cfg.Disks)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	mk := cfg.Video
	if mk == nil {
		mk = MPEG1Video
	}

	if cfg.ChunkSize > 0 && cfg.MaxRead <= 0 {
		return nil, fmt.Errorf("catalog: chunked layout needs MaxRead")
	}

	videos := make([]Video, cfg.Titles)
	for id := range videos {
		v := mk(id)
		if v.Rate <= 0 || v.Length <= 0 {
			return nil, fmt.Errorf("catalog: video %d has non-positive rate or length", id)
		}
		if len(v.Ladder) > 0 {
			if v.Ladder[0] != v.Rate {
				return nil, fmt.Errorf("catalog: video %d ladder top rung %v != rate %v", id, v.Ladder[0], v.Rate)
			}
			for r := 1; r < len(v.Ladder); r++ {
				if v.Ladder[r] <= 0 || v.Ladder[r] >= v.Ladder[r-1] {
					return nil, fmt.Errorf("catalog: video %d ladder not strictly descending and positive at rung %d (%v)", id, r, v.Ladder[r])
				}
			}
		}
		videos[id] = v
	}
	popularity := ZipfWeights(cfg.Titles, cfg.PopularityTheta)

	policy := cfg.Policy
	if policy == nil {
		policy = RoundRobin{}
	}
	specs, err := policy.Place(PolicyContext{
		Videos:     videos,
		Disks:      cfg.Disks,
		Spec:       cfg.Spec,
		Popularity: popularity,
	})
	if err != nil {
		return nil, err
	}
	if len(specs) != cfg.Titles {
		return nil, fmt.Errorf("catalog: policy %s placed %d of %d titles", policy.Name(), len(specs), cfg.Titles)
	}

	lib := &Library{
		videos:     videos,
		replicas:   make([][]Replica, cfg.Titles),
		placements: make([]Placement, cfg.Titles),
		popularity: popularity,
		disks:      cfg.Disks,
		policy:     policy.Name(),
	}
	nextStart := make([]si.Bits, cfg.Disks)
	var allocs []*chunk.Allocator
	if cfg.ChunkSize > 0 {
		allocs = make([]*chunk.Allocator, cfg.Disks)
		for d := range allocs {
			allocs[d] = chunk.NewAllocator(cfg.Spec.Capacity)
		}
	}
	for id, v := range videos {
		lib.placements[id] = Placement{Video: v, Disk: -1} // absent until a replica lands
		for ri, spec := range specs[id] {
			if len(spec.Disks) == 0 {
				return nil, fmt.Errorf("catalog: policy %s: video %d replica %d spans no disks", policy.Name(), id, ri)
			}
			if len(spec.Disks) > 1 && cfg.ChunkSize > 0 {
				return nil, fmt.Errorf("catalog: video %d: striped replicas cannot use a chunked layout", id)
			}
			rep := Replica{Segments: make([]Placement, len(spec.Disks))}
			width := len(spec.Disks)
			for seg, disk := range spec.Disks {
				if disk < 0 || disk >= cfg.Disks {
					return nil, fmt.Errorf("catalog: policy %s: video %d on disk %d outside [0, %d)", policy.Name(), id, disk, cfg.Disks)
				}
				// Equal-duration segments in playback order; boundaries
				// telescope so the spans sum to the video size exactly.
				from := v.Size() * si.Bits(float64(seg)/float64(width))
				to := v.Size() * si.Bits(float64(seg+1)/float64(width))
				span := to - from
				if cfg.ChunkSize > 0 {
					layout, err := chunk.NewLayout(v.Size(), cfg.ChunkSize, cfg.MaxRead)
					if err != nil {
						return nil, fmt.Errorf("catalog: video %d: %w", id, err)
					}
					placed, err := allocs[disk].Place(layout)
					if err != nil {
						return nil, fmt.Errorf("catalog: disk %d, video %d: %w", disk, id, err)
					}
					rep.Segments[seg] = Placement{Video: v, Disk: disk, Chunks: placed}
					continue
				}
				start := nextStart[disk]
				if start+span > cfg.Spec.Capacity {
					return nil, fmt.Errorf("catalog: disk %d overflows placing video %d (%v needed, %v free)",
						disk, id, span, cfg.Spec.Capacity-start)
				}
				p := Placement{Video: v, Disk: disk, Start: start}
				if width > 1 {
					p.From, p.Span = from, span
				}
				rep.Segments[seg] = p
				nextStart[disk] = start + span
			}
			lib.replicas[id] = append(lib.replicas[id], rep)
			if ri == 0 {
				lib.placements[id] = rep.Segments[0]
			}
		}
	}
	return lib, nil
}

// Len reports the number of titles.
func (l *Library) Len() int { return len(l.videos) }

// Disks reports the number of disks the library spans.
func (l *Library) Disks() int { return l.disks }

// Video returns title id.
func (l *Library) Video(id int) Video { return l.videos[id] }

// Placement returns the primary placement of title id: its first
// replica's first segment. Titles the policy left out of this library
// (possible in per-server views of a fleet catalog) report Disk == -1.
func (l *Library) Placement(id int) Placement { return l.placements[id] }

// Replicas returns every materialized copy of title id, in the order the
// policy produced them (the first is the primary).
func (l *Library) Replicas(id int) []Replica { return l.replicas[id] }

// PlacementFor returns the placement of title id's data on the given
// disk — the first replica segment living there — and whether one
// exists. Disks serve streams from their local copy, so a replicated
// title reads from whichever disk the router picked.
func (l *Library) PlacementFor(id, disk int) (Placement, bool) {
	for _, rep := range l.replicas[id] {
		for _, seg := range rep.Segments {
			if seg.Disk == disk {
				return seg, true
			}
		}
	}
	return Placement{}, false
}

// Rates returns the union of every title's ladder rungs, descending —
// the complete set of consumption rates a server hosting this library
// must be able to size buffers for.
func (l *Library) Rates() []si.BitRate {
	seen := map[si.BitRate]bool{}
	var rates []si.BitRate
	for _, v := range l.videos {
		for _, r := range v.Rungs() {
			if !seen[r] {
				seen[r] = true
				rates = append(rates, r)
			}
		}
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i] > rates[j] })
	return rates
}

// RungOf maps a delivered rate back to its index in title id's ladder
// (0 is full quality), or -1 if the title has no such rung.
func (l *Library) RungOf(id int, rate si.BitRate) int {
	for i, r := range l.videos[id].Rungs() {
		if r == rate {
			return i
		}
	}
	return -1
}

// PolicyName reports which placement policy laid the library out.
func (l *Library) PolicyName() string { return l.policy }

// Popularity returns the access probability of title id.
func (l *Library) Popularity(id int) float64 { return l.popularity[id] }

// Pick maps a uniform random variate u in [0,1) to a title id drawn from
// the popularity distribution.
func (l *Library) Pick(u float64) int {
	acc := 0.0
	for id, p := range l.popularity {
		acc += p
		if u < acc {
			return id
		}
	}
	return len(l.popularity) - 1 // float round-off at the top end
}

// MaxRead reports the largest single read every placement in the library
// guarantees to serve with one disk latency — the binding constraint a
// server's buffer sizes must respect under a chunked layout.
func (l *Library) MaxRead() si.Bits {
	min := si.Bits(math.Inf(1))
	l.eachPlacement(func(_ int, p Placement) {
		if m := p.MaxRead(); m < min {
			min = m
		}
	})
	return min
}

// eachPlacement visits every materialized placement — all segments of
// all replicas of all titles. The derived layout measures (MaxRead,
// ChunkedMaxRead, DiskLoad) all walk the layout through here, so they
// cannot drift from what the policy actually placed.
func (l *Library) eachPlacement(fn func(id int, p Placement)) {
	for id, reps := range l.replicas {
		for _, rep := range reps {
			for _, seg := range rep.Segments {
				fn(id, seg)
			}
		}
	}
}

// ChunkedMaxRead reports the binding single-read bound of the library's
// chunked placements: the largest read they all guarantee to serve with
// one disk latency. Contiguous placements impose no bound — a server's
// fills are clamped inside the video, and any read inside one extent
// costs one latency — so a library with no chunked placement reports
// +Inf. This, not MaxRead, is the constraint a server's buffer sizes
// must respect: MaxRead also folds in contiguous videos' sizes, which
// bound nothing when buffers may exceed a short title's length.
func (l *Library) ChunkedMaxRead() si.Bits {
	min := si.Bits(math.Inf(1))
	l.eachPlacement(func(_ int, p Placement) {
		if p.Chunks == nil {
			return
		}
		if m := p.MaxRead(); m < min {
			min = m
		}
	})
	return min
}

// DiskLoad reports, for each disk, the total access probability of the
// data placed on it — the expected fraction of requests that disk serves
// when demand splits evenly across a title's replicas and, within a
// striped replica, in proportion to each segment's share of the title.
// The admission router and the scale scenarios both read headroom off
// this, so the accounting lives here, next to the layout it measures.
func (l *Library) DiskLoad() []float64 {
	load := make([]float64, l.disks)
	for id, reps := range l.replicas {
		if len(reps) == 0 {
			continue
		}
		share := l.popularity[id] / float64(len(reps))
		for _, rep := range reps {
			size := float64(l.videos[id].Size())
			for _, seg := range rep.Segments {
				load[seg.Disk] += share * float64(seg.ContentSize()) / size
			}
		}
	}
	return load
}

// ZipfWeights returns n weights following the paper's Zipf convention:
// weight_i ∝ (1/i)^(1-theta) for rank i = 1..n. theta = 0 is the classic,
// highly skewed 1/i law; theta = 1 is uniform. The weights sum to 1.
// It panics if n <= 0; theta is clamped to [0, 1].
func ZipfWeights(n int, theta float64) []float64 {
	if n <= 0 {
		panic("catalog: ZipfWeights with n <= 0")
	}
	theta = math.Min(1, math.Max(0, theta))
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(1/float64(i+1), 1-theta)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
