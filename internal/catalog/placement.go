package catalog

import (
	"fmt"
	"sort"

	"repro/internal/diskmodel"
)

// PolicyContext is the input a PlacementPolicy decides from: the titles,
// the disk budget, the disk geometry, and the normalized popularity of
// each title (already computed, so policies that weight by popularity and
// the Library's own load accounting share one distribution).
type PolicyContext struct {
	Videos     []Video
	Disks      int
	Spec       diskmodel.Spec
	Popularity []float64
}

// ReplicaSpec names the disks one complete copy of a title occupies. A
// single disk holds the whole title contiguously; k > 1 disks stripe the
// copy into k equal-duration segments in playback order, one per listed
// disk. Physical extents are assigned by the Library constructor, not the
// policy, so capacity accounting lives in one place.
type ReplicaSpec struct {
	Disks []int
}

// PlacementPolicy decides where titles live. Place returns, for each
// title (outer index = video ID), the list of replicas to materialize.
// An empty replica list is legal and means the title is absent from this
// library — multi-server fleets use that to build per-server views of a
// global catalog. The decision must be deterministic: simulations and
// goldens depend on byte-identical layouts.
type PlacementPolicy interface {
	// Name identifies the policy in reports and errors.
	Name() string
	// Place maps every title to its replicas.
	Place(ctx PolicyContext) ([][]ReplicaSpec, error)
}

// RoundRobin is the classic one-copy layout: title id lives whole on disk
// id mod Disks. It reproduces the constructor's historical default
// byte-for-byte (the policy-oracle test pins this).
type RoundRobin struct{}

// Name implements PlacementPolicy.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements PlacementPolicy.
func (RoundRobin) Place(ctx PolicyContext) ([][]ReplicaSpec, error) {
	out := make([][]ReplicaSpec, len(ctx.Videos))
	for id := range ctx.Videos {
		out[id] = []ReplicaSpec{{Disks: []int{id % ctx.Disks}}}
	}
	return out, nil
}

// LeastLoaded places one copy of each title, in title order, on the disk
// with the least accumulated popularity (lowest disk first on ties).
// Because Zipf popularity falls with the id, this is the greedy
// longest-processing-time deal the scale scenarios used to hand-roll: a
// near-uniform expected load when no single title outweighs a fair share.
type LeastLoaded struct{}

// Name implements PlacementPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Place implements PlacementPolicy.
func (LeastLoaded) Place(ctx PolicyContext) ([][]ReplicaSpec, error) {
	out := make([][]ReplicaSpec, len(ctx.Videos))
	load := make([]float64, ctx.Disks)
	for id := range ctx.Videos {
		best := 0
		for d := 1; d < ctx.Disks; d++ {
			if load[d] < load[best] {
				best = d
			}
		}
		out[id] = []ReplicaSpec{{Disks: []int{best}}}
		load[best] += ctx.Popularity[id]
	}
	return out, nil
}

// Replicated wraps a base policy with popularity-weighted replication:
// the hottest HotTitles titles get extra whole-title copies on the disks
// with the least expected load, so a router can spread their demand.
type Replicated struct {
	// Base decides the primary copy of every title; nil means LeastLoaded.
	Base PlacementPolicy

	// HotTitles is how many of the most popular titles to replicate.
	HotTitles int

	// Copies is the total number of copies a hot title ends with
	// (including the primary). Must be >= 1; values above Disks are
	// capped by the distinct-disk rule.
	Copies int

	// ColdCopies, when > 1, also replicates the non-hot tail to this many
	// copies — e.g. 2 gives every cold title a failover twin.
	ColdCopies int

	// GroupSize, when > 0, partitions the disks into consecutive groups
	// of this size (a fleet's servers) and spreads a title's copies
	// across distinct groups while any group lacks one, so a whole-server
	// failure leaves every hot title reachable.
	GroupSize int
}

// Name implements PlacementPolicy.
func (r Replicated) Name() string { return "replicated(" + r.base().Name() + ")" }

func (r Replicated) base() PlacementPolicy {
	if r.Base == nil {
		return LeastLoaded{}
	}
	return r.Base
}

// Place implements PlacementPolicy.
func (r Replicated) Place(ctx PolicyContext) ([][]ReplicaSpec, error) {
	if r.Copies < 1 {
		return nil, fmt.Errorf("catalog: Replicated.Copies = %d, need >= 1", r.Copies)
	}
	out, err := r.base().Place(ctx)
	if err != nil {
		return nil, err
	}
	// Expected load per disk, counting each title's primary layout.
	load := make([]float64, ctx.Disks)
	for id, reps := range out {
		for _, rep := range reps {
			for _, d := range rep.Disks {
				load[d] += ctx.Popularity[id] / float64(len(reps)*len(rep.Disks))
			}
		}
	}
	// Hottest titles first: popularity descending, id ascending on ties.
	rank := make([]int, len(ctx.Videos))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool {
		return ctx.Popularity[rank[a]] > ctx.Popularity[rank[b]]
	})
	for pos, id := range rank {
		copies := r.Copies
		if pos >= r.HotTitles {
			copies = r.ColdCopies
		}
		if copies <= len(out[id]) {
			continue
		}
		// The title's demand now splits across `copies` replicas; re-weight
		// the primary's contribution before placing the extras.
		w := ctx.Popularity[id]
		for _, rep := range out[id] {
			for _, d := range rep.Disks {
				load[d] -= (w - w/float64(copies)) / float64(len(out[id])*len(rep.Disks))
			}
		}
		for len(out[id]) < copies {
			d := r.pickDisk(ctx, load, out[id])
			if d < 0 {
				break // every disk (or group) already holds a copy
			}
			out[id] = append(out[id], ReplicaSpec{Disks: []int{d}})
			load[d] += w / float64(copies)
		}
	}
	return out, nil
}

// pickDisk returns the least-loaded disk eligible for the next copy of a
// title: one not already holding a copy and, while some group lacks the
// title, in such a group. -1 means no disk qualifies.
func (r Replicated) pickDisk(ctx PolicyContext, load []float64, have []ReplicaSpec) int {
	used := make(map[int]bool)
	usedGroup := make(map[int]bool)
	for _, rep := range have {
		for _, d := range rep.Disks {
			used[d] = true
			if r.GroupSize > 0 {
				usedGroup[d/r.GroupSize] = true
			}
		}
	}
	groups := 0
	if r.GroupSize > 0 {
		groups = (ctx.Disks + r.GroupSize - 1) / r.GroupSize
	}
	freshGroups := r.GroupSize > 0 && len(usedGroup) < groups
	best := -1
	for d := 0; d < ctx.Disks; d++ {
		if used[d] {
			continue
		}
		if freshGroups && usedGroup[d/r.GroupSize] {
			continue
		}
		if best < 0 || load[d] < load[best] {
			best = d
		}
	}
	return best
}

// Striped stripes every title into Width equal-duration segments on
// consecutive disks, rotating the starting disk so segment load spreads:
// title id occupies disks (id*Width + j) mod Disks for j in [0, Width).
// A striped library cannot use a chunked layout (segments are already the
// contiguity unit).
type Striped struct {
	// Width is the number of disks (= segments) per title. Must be in
	// [1, Disks].
	Width int
}

// Name implements PlacementPolicy.
func (Striped) Name() string { return "striped" }

// Place implements PlacementPolicy.
func (s Striped) Place(ctx PolicyContext) ([][]ReplicaSpec, error) {
	if s.Width < 1 || s.Width > ctx.Disks {
		return nil, fmt.Errorf("catalog: stripe width %d outside [1, %d]", s.Width, ctx.Disks)
	}
	out := make([][]ReplicaSpec, len(ctx.Videos))
	for id := range ctx.Videos {
		disks := make([]int, s.Width)
		for j := range disks {
			disks[j] = (id*s.Width + j) % ctx.Disks
		}
		out[id] = []ReplicaSpec{{Disks: disks}}
	}
	return out, nil
}

// Explicit is a literal layout: the replica table itself, indexed by
// title. Fleet composition uses it to carve per-server libraries out of a
// globally decided placement.
type Explicit [][]ReplicaSpec

// Name implements PlacementPolicy.
func (Explicit) Name() string { return "explicit" }

// Place implements PlacementPolicy.
func (e Explicit) Place(ctx PolicyContext) ([][]ReplicaSpec, error) {
	if len(e) != len(ctx.Videos) {
		return nil, fmt.Errorf("catalog: explicit layout covers %d titles, library has %d", len(e), len(ctx.Videos))
	}
	return e, nil
}
