package engine

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/si"
)

// The TestDeadlineHeap* names date from the 4-ary heap this index
// replaced; they are kept because each test still pins the same contract
// (agreement with a reference, the admitSeq tie-break, the ascending
// sequence, the out-of-sync panic, zero steady-state allocation).

// refIndex is the obvious reference implementation the index must agree
// with: a slice re-sorted after every mutation.
type refIndex []*Stream

func (r refIndex) sorted() {
	sort.Slice(r, func(i, j int) bool { return dlBefore(r[i], r[j]) })
}

func (r *refIndex) drop(i int) *Stream {
	st := (*r)[i]
	*r = append((*r)[:i], (*r)[i+1:]...)
	return st
}

// agree fails the test unless the index is well-formed and holds exactly
// the reference's streams: same population, same minimum — (dlKey,
// admitSeq) tie-break included — and an ascending view equal to the
// reference's sorted keys.
func agree(t *testing.T, op int, x *deadlineIndex, ref refIndex) {
	t.Helper()
	if err := x.check(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	view := x.ascending()
	if x.size() != len(ref) || len(view) != len(ref) {
		t.Fatalf("op %d: size %d, view of %d, reference %d", op, x.size(), len(view), len(ref))
	}
	if len(ref) == 0 {
		if x.min() != nil {
			t.Fatalf("op %d: empty index reports a minimum", op)
		}
		return
	}
	if got := x.min(); got != ref[0] {
		t.Fatalf("op %d: min = stream %d, reference stream %d", op, got.id, ref[0].id)
	}
	for i, st := range ref {
		if view[i] != st.dlKey {
			t.Fatalf("op %d: ascending[%d] = %v, reference %v", op, i, view[i], st.dlKey)
		}
		if x.find(st) < 0 {
			t.Fatalf("op %d: stream %d not found under its key", op, st.id)
		}
	}
}

// TestDeadlineHeapMatchesReference drives the index through a long
// random insert / remove / re-key trace with heavy key ties and checks it
// against the reference after every operation. The phases steer the
// trace through every structural path — growth while filling, the
// fill-completion pair that walks the head forward until a full array is
// compacted instead of grown, and mid-queue operations that shift the
// head side or the tail side, whichever is shorter — and the test
// asserts each path was actually taken.
func TestDeadlineHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x deadlineIndex
	var ref refIndex
	var seq int64
	file := func(st *Stream, key si.Seconds) {
		seq++
		st.dlKey, st.admitSeq = key, seq
		x.insert(st)
		ref = append(ref, st)
		ref.sorted()
	}
	var grows, compacts, headShifts, tailShifts int
	op := 0
	step := func(mutate func()) {
		op++
		head, capacity, tail, first := x.head, cap(x.keys), len(x.keys), x.min()
		mutate()
		switch {
		case cap(x.keys) > capacity:
			grows++
		case x.head == 0 && len(x.keys) < tail-1:
			compacts++ // the dead prefix went, not just one entry
		case x.head != head && x.min() == first:
			headShifts++ // the head moved under an unchanged minimum
		case x.head == head && len(x.keys) != tail:
			tailShifts++
		}
		agree(t, op, &x, ref)
	}
	for round := 0; round < 6; round++ {
		// Fill: few distinct keys, so ties are the common case.
		for len(ref) < 150+50*round {
			step(func() { file(&Stream{id: int(seq)}, si.Seconds(rng.Intn(16))) })
		}
		// Steady state: serve the earliest, re-file it behind the rest.
		for i := 0; i < 1200; i++ {
			step(func() {
				st := x.min()
				x.remove(st)
				ref.drop(0)
				file(st, ref[len(ref)-1].dlKey+si.Seconds(rng.Intn(2)))
			})
		}
		// Churn: re-key, remove and insert anywhere in the queue.
		for i := 0; i < 600; i++ {
			step(func() {
				lo, hi := ref[0].dlKey, ref[len(ref)-1].dlKey
				key := lo - 1 + si.Seconds(rng.Intn(int(hi-lo)+3))
				switch rng.Intn(3) {
				case 0:
					file(&Stream{id: int(seq)}, key)
				case 1:
					x.remove(ref.drop(rng.Intn(len(ref))))
				default:
					st := ref.drop(rng.Intn(len(ref)))
					x.remove(st)
					file(st, key)
				}
			})
		}
		// Drain most of it, from both ends and the middle.
		for len(ref) > 20 {
			step(func() { x.remove(ref.drop(rng.Intn(len(ref)))) })
		}
	}
	for len(ref) > 0 {
		step(func() { x.remove(ref.drop(rng.Intn(len(ref)))) })
	}
	if grows == 0 || compacts == 0 || headShifts == 0 || tailShifts == 0 {
		t.Errorf("trace missed a path: %d grows, %d compactions, %d head-side shifts, %d tail-side shifts",
			grows, compacts, headShifts, tailShifts)
	}
}

// Equal deadlines must resolve by admission order — the BubbleUp scan's
// tie-break.
func TestDeadlineHeapTieBreakByAdmitSeq(t *testing.T) {
	var x deadlineIndex
	streams := make([]*Stream, 20)
	for i := range streams {
		streams[i] = &Stream{id: i, admitSeq: int64(i), dlKey: 5}
	}
	// Insert in a scrambled order; the minimum must still walk out in
	// admission order as we drain.
	for _, i := range rand.New(rand.NewSource(2)).Perm(len(streams)) {
		x.insert(streams[i])
	}
	for want := 0; want < len(streams); want++ {
		st := x.min()
		if st.admitSeq != int64(want) {
			t.Fatalf("drain %d: min admitSeq %d", want, st.admitSeq)
		}
		x.remove(st)
	}
}

// The ascending view is the sorted key sequence itself, not a copy.
func TestDeadlineHeapAppendAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x deadlineIndex
	var want []si.Seconds
	for i := 0; i < 200; i++ {
		dl := si.Seconds(rng.Intn(50))
		x.insert(&Stream{id: i, admitSeq: int64(i), dlKey: dl})
		want = append(want, dl)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := x.ascending()
	if len(got) != len(want) {
		t.Fatalf("view holds %d values, want %d", len(got), len(want))
	}
	for i, dl := range got {
		if dl != want[i] {
			t.Fatalf("ascending[%d] = %v, want %v", i, dl, want[i])
		}
	}
	if &got[0] != &x.keys[x.head] {
		t.Error("ascending copied the keys instead of viewing them")
	}
}

// Position is found by search, so remove must refuse a stream the search
// cannot land on: one never filed, and one whose key moved while it was
// indexed — even when the stale key still sorts between its neighbours.
func TestDeadlineHeapRemoveOutOfSyncPanics(t *testing.T) {
	build := func() (*deadlineIndex, []*Stream) {
		x := &deadlineIndex{}
		sts := make([]*Stream, 5)
		for i := range sts {
			sts[i] = &Stream{id: i, admitSeq: int64(i), dlKey: si.Seconds(10 * i)}
			x.insert(sts[i])
		}
		return x, sts
	}
	cases := map[string]func(x *deadlineIndex, sts []*Stream) *Stream{
		"unfiled": func(*deadlineIndex, []*Stream) *Stream {
			return &Stream{id: 99, admitSeq: 2, dlKey: 20}
		},
		"unfiled past the tail": func(*deadlineIndex, []*Stream) *Stream {
			return &Stream{id: 99, admitSeq: 99, dlKey: 1000}
		},
		"removed twice": func(x *deadlineIndex, sts []*Stream) *Stream {
			x.remove(sts[2])
			return sts[2]
		},
		"stale key, moved past a neighbour": func(_ *deadlineIndex, sts []*Stream) *Stream {
			sts[2].dlKey = 35
			return sts[2]
		},
		"stale key, still between its neighbours": func(_ *deadlineIndex, sts []*Stream) *Stream {
			sts[2].dlKey = 25
			return sts[2]
		},
	}
	for name, pick := range cases {
		t.Run(name, func(t *testing.T) {
			x, sts := build()
			st := pick(x, sts)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of sync") {
					t.Errorf("remove recovered %q, want an out-of-sync panic", msg)
				}
			}()
			x.remove(st)
		})
	}
}

// What a dispatch pays at 700 streams per disk — remove the served
// stream, re-file it at its next deadline, read the ascending sequence —
// must not allocate once the backing arrays have grown to twice the
// population.
func TestDeadlineHeapSteadyStateAllocFree(t *testing.T) {
	const n = 1024
	if checksum := DeadlineIndexChurn(n, n); checksum < 0 {
		t.Fatal("churn hook rejected its input")
	}
	var x deadlineIndex
	dl := si.Seconds(0)
	for i := 0; i < n; i++ {
		dl += si.Seconds(i%5) / 8
		x.insert(&Stream{id: i, admitSeq: int64(i), dlKey: dl})
	}
	seq := int64(n)
	var sum si.Seconds
	cycle := func() {
		st := x.min()
		x.remove(st)
		dl += 0.125
		seq++
		st.dlKey, st.admitSeq = dl, seq
		x.insert(st)
		sum += latestStartSorted(x.ascending(), 0.01)
	}
	for i := 0; i < 4*n; i++ {
		cycle() // let the arrays reach their steady capacity
	}
	if allocs := testing.AllocsPerRun(4*n, cycle); allocs != 0 {
		t.Errorf("steady-state remove+insert+read allocates %.1f objects/op, want 0", allocs)
	}
	if err := x.check(); err != nil {
		t.Fatal(err)
	}
}

// latestStartSorted over the index's view must equal the lazy-start rule
// evaluated from its definition on the unsorted population: each stream
// must leave room for every service due no later than its own, so
// start ≤ d_j − |{k : d_k ≤ d_j}|·w for every j, less the cushion.
func TestLatestStartSortedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		var x deadlineIndex
		n := 1 + rng.Intn(60)
		dls := make([]si.Seconds, n)
		for i := range dls {
			// A clustered tail and ties: the shapes where the minimum is
			// not at the earliest deadline.
			dls[i] = si.Seconds(100 + rng.Intn(40)/(1+rng.Intn(4)))
			x.insert(&Stream{id: i, admitSeq: int64(i), dlKey: dls[i]})
		}
		w := si.Seconds(0.05 + rng.Float64())
		want := si.Seconds(math.Inf(1))
		for _, dj := range dls {
			due := 0
			for _, dk := range dls {
				if dk <= dj {
					due++
				}
			}
			if cand := dj - si.Seconds(due)*w; cand < want {
				want = cand
			}
		}
		want -= lazyMarginServices * w
		if got := latestStartSorted(x.ascending(), w); got != want {
			t.Fatalf("trial %d (n=%d, w=%v): latestStartSorted = %v, brute force %v", trial, n, w, got, want)
		}
	}
}
