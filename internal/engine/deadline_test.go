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
// The refusals are the same on an index deep enough to hold block
// summaries, after a query that built them.
func TestDeadlineHeapRemoveOutOfSyncPanics(t *testing.T) {
	build := func(depth int) (*deadlineIndex, []*Stream) {
		x := &deadlineIndex{}
		sts := make([]*Stream, depth)
		for i := range sts {
			sts[i] = &Stream{id: i, admitSeq: int64(i), dlKey: si.Seconds(10 * i)}
			x.insert(sts[i])
		}
		if x.lazyStart(0.5); (len(x.sums) > 0) != (depth >= 2*dlBlock) {
			t.Fatalf("depth %d: %d summaries held", depth, len(x.sums))
		}
		return x, sts
	}
	cases := map[string]func(x *deadlineIndex, sts []*Stream) *Stream{
		"unfiled": func(*deadlineIndex, []*Stream) *Stream {
			return &Stream{id: 99, admitSeq: 2, dlKey: 20}
		},
		"unfiled past the tail": func(*deadlineIndex, []*Stream) *Stream {
			return &Stream{id: 99, admitSeq: 99, dlKey: 5000}
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
			for _, depth := range []int{5, 200} {
				x, sts := build(depth)
				st := pick(x, sts)
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, "out of sync") {
							t.Errorf("depth %d: remove recovered %q, want an out-of-sync panic", depth, msg)
						}
					}()
					x.remove(st)
				}()
			}
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

// lazyStart must return latestStartSorted's float over the same view, bit
// for bit, whatever the index went through since it last summarized:
// fill-completion pairs (head advance, tail append), mid-queue inserts and
// removes on either side, compactions, a changing w, queues that shrink
// under two blocks and grow back. The spacings are the adversarial ones
// for a pruning rule — deadlines exactly w apart, so that every candidate
// ties; w plus or minus an ulp, so that they differ in the last bit; long
// flat clusters, where the minimum sits deep in the tail; all of it near
// 1e5 s, where an ulp of a deadline is a visible fraction of w — and the
// structure's invariants, summaries included, are checked after every
// operation. The trace must have kept summaries across the hot pair and
// dropped them on a memmove.
func TestLazyStartMatchesPlainScan(t *testing.T) {
	const w0 = si.Seconds(0.0077)
	gaps := []func(rng *rand.Rand) si.Seconds{
		func(*rand.Rand) si.Seconds { return w0 },
		func(*rand.Rand) si.Seconds { return si.Seconds(math.Nextafter(float64(w0), 1)) },
		func(*rand.Rand) si.Seconds { return si.Seconds(math.Nextafter(float64(w0), 0)) },
		func(rng *rand.Rand) si.Seconds { return si.Seconds(rng.Intn(40)/39) * 0.9 }, // flat runs, rare jumps
		func(rng *rand.Rand) si.Seconds { return w0 * si.Seconds(rng.Float64()*2) },
	}
	var kept, dropped, rebuilt, plain int
	for seed, gap := range gaps {
		for _, base := range []si.Seconds{0, 99_990} {
			rng := rand.New(rand.NewSource(int64(seed) + 1))
			var x deadlineIndex
			var ref refIndex
			var seq int64
			last := base
			file := func(st *Stream, key si.Seconds) {
				seq++
				st.dlKey, st.admitSeq = key, seq
				x.insert(st)
				ref = append(ref, st)
				ref.sorted()
			}
			w := w0
			for op := 0; op < 6000; op++ {
				held := len(x.sums) > 0
				switch k := rng.Intn(40); {
				case len(ref) < 20 || (k < 2 && len(ref) < 400):
					for i := 0; i < 1+rng.Intn(150); i++ { // a burst at the tail
						last += gap(rng)
						file(&Stream{id: int(seq)}, last)
					}
				case k < 30: // the fill-completion pair
					st := x.min()
					x.remove(st)
					ref.drop(0)
					last += gap(rng)
					file(st, last)
					if held && len(x.sums) > 0 {
						kept++
					}
				case k < 33: // a stream re-filed anywhere
					st := ref.drop(rng.Intn(len(ref)))
					x.remove(st)
					file(st, ref[0].dlKey+si.Seconds(rng.Float64())*(last-ref[0].dlKey))
					if held && len(x.sums) == 0 {
						dropped++
					}
				case k < 36:
					x.remove(ref.drop(rng.Intn(len(ref))))
				case k < 37:
					for len(ref) > 30 && rng.Intn(8) > 0 { // a drain below two blocks
						x.remove(ref.drop(rng.Intn(len(ref))))
					}
				case k < 38:
					w = w0 * si.Seconds(0.5+rng.Float64())
				default:
					w = w0
				}
				if len(ref) == 0 {
					continue
				}
				held = len(x.sums) > 0 && w == x.sumW
				got, want := x.lazyStart(w), latestStartSorted(x.ascending(), w)
				if got != want {
					t.Fatalf("gap %d base %v op %d (n=%d, w=%v): lazyStart %v, plain scan %v (apart by %g)",
						seed, base, op, len(ref), w, got, want, float64(got-want))
				}
				switch {
				case len(ref) < 2*dlBlock:
					plain++
				case !held:
					rebuilt++
				}
				if err := x.check(); err != nil {
					t.Fatalf("gap %d base %v op %d: %v", seed, base, op, err)
				}
			}
		}
	}
	if kept == 0 || dropped == 0 || rebuilt == 0 || plain == 0 {
		t.Errorf("trace missed a path: summaries kept across %d pairs, dropped by %d re-files, rebuilt %d times, %d plain scans",
			kept, dropped, rebuilt, plain)
	}
}

// With summaries held the rule must actually skip blocks: on 700 evenly
// spaced deadlines a query costs a fraction of the plain scan. Timing-free:
// poison every key outside the head's block after summarizing — a scan
// that read them would return the poison.
func TestLazyStartSkipsBlocksItCanRuleOut(t *testing.T) {
	var x deadlineIndex
	const w = si.Seconds(0.01)
	for i := 0; i < 700; i++ {
		x.insert(&Stream{id: i, admitSeq: int64(i), dlKey: 100 + si.Seconds(i)*2*w})
	}
	want := latestStartSorted(x.ascending(), w)
	if got := x.lazyStart(w); got != want {
		t.Fatalf("lazyStart %v, plain scan %v", got, want)
	}
	for p := dlBlock; p < len(x.keys); p++ {
		x.keys[p] = -1e9
	}
	if got := x.lazyStart(w); got != want {
		t.Errorf("lazyStart read a block its summary rules out: %v, want %v", got, want)
	}
}

// The dispatch path at depth 700 — the pair, then the rule through the
// index — must not allocate, whether the summaries survive the pair or a
// changing w rebuilds them on every call.
func TestLazyStartSteadyStateAllocFree(t *testing.T) {
	const n = 700
	var x deadlineIndex
	dl := si.Seconds(0)
	for i := 0; i < n; i++ {
		dl += si.Seconds(i%5) / 8
		x.insert(&Stream{id: i, admitSeq: int64(i), dlKey: dl})
	}
	seq := int64(n)
	var sum si.Seconds
	for _, tc := range []struct {
		name string
		w    func(i int64) si.Seconds
	}{
		{"summaries kept", func(int64) si.Seconds { return 0.01 }},
		{"rebuilt on every call", func(i int64) si.Seconds { return 0.01 + si.Seconds(i%2)/1000 }},
	} {
		cycle := func() {
			st := x.min()
			x.remove(st)
			dl += 0.125
			seq++
			st.dlKey, st.admitSeq = dl, seq
			x.insert(st)
			sum += x.lazyStart(tc.w(seq))
		}
		for i := 0; i < 4*n; i++ {
			cycle() // let the arrays reach their steady capacity
		}
		if allocs := testing.AllocsPerRun(4*n, cycle); allocs != 0 {
			t.Errorf("%s: remove+insert+lazyStart allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
	if err := x.check(); err != nil {
		t.Fatal(err)
	}
}
