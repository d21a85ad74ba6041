package engine

import (
	"fmt"
	"math"

	"repro/internal/si"
)

// deadlineIndex orders a disk's started streams that still need service
// by ascending (dlKey, admitSeq) — the Round-Robin/BubbleUp scan winner
// with its tie-breaks. Round-Robin's lazy-start rule reads the whole
// ascending deadline sequence on nearly every dispatch, so the index
// keeps it materialized: two parallel slices, contiguous keys and their
// streams, sorted behind a moving head. A fill completion — remove the
// earliest, re-file at the latest — is a head advance plus a tail
// append; a mid-queue insert or remove is a binary search plus a memmove
// of the shorter side, bounded by DeriveN entries. (A heap would have to
// be copied and sorted per dispatch: measured at 88 % of a depth-700
// run.) keys[i] mirrors sts[i].dlKey, frozen at insert — dlFix re-files
// a stream whose deadline moved — and the live region is [head, len).
//
// The lazy-start rule min_p(keys[p] − (p−head+1)·w) would still read all
// of it, so the index also keeps, for the w it was last asked about, a
// lower bound per block of dlBlock array positions: sums[b] is the least
// keys[p] − p·w over block b's live positions. Positions are absolute, so
// a head advance leaves every summary true and a tail append folds into
// the last one; anything that renumbers positions or shortens the array (a
// mid-queue memmove, a compaction) empties sums, and lazyStart rebuilds
// them. An empty sums means none are held.
type deadlineIndex struct {
	keys []si.Seconds
	sts  []*Stream
	head int
	sums []si.Seconds
	sumW si.Seconds
}

// dlBlock is the summary block width; dlSlack the relative margin lazyStart
// leaves for rounding (a few ulps of the largest term, so under 1e-15).
const dlBlock, dlSlack = 32, 1e-9

// dlBefore is the index's strict total order.
func dlBefore(a, b *Stream) bool {
	return a.dlKey < b.dlKey || (a.dlKey == b.dlKey && a.admitSeq < b.admitSeq)
}

// size reports the number of indexed streams.
func (x *deadlineIndex) size() int { return len(x.keys) - x.head }

// min returns the indexed stream with the smallest (dlKey, admitSeq), or
// nil when the index is empty.
func (x *deadlineIndex) min() *Stream {
	if x.head == len(x.sts) {
		return nil
	}
	return x.sts[x.head]
}

// ascending returns the indexed deadlines in ascending order: a
// read-only view, valid until the next insert or remove.
func (x *deadlineIndex) ascending() []si.Seconds { return x.keys[x.head:] }

// search returns the first live position whose entry does not precede
// (key, seq) — where such an entry is filed, or would be. The two ends
// are probed first: a fill completion looks up the head (the stream just
// served) and then a slot past the tail (its next deadline).
func (x *deadlineIndex) search(key si.Seconds, seq int64) int {
	precedes := func(m int) bool {
		k := x.keys[m]
		return k < key || (k == key && x.sts[m].admitSeq < seq)
	}
	lo, hi := x.head, len(x.keys)
	if lo == hi || !precedes(lo) {
		return lo
	}
	if precedes(hi - 1) {
		return hi
	}
	for lo, hi = lo+1, hi-1; lo < hi; {
		if m := int(uint(lo+hi) >> 1); precedes(m) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns st's position, or -1 when st is not filed under its
// current (dlKey, admitSeq) — never inserted, or re-keyed while indexed.
func (x *deadlineIndex) find(st *Stream) int {
	pos := x.search(st.dlKey, st.admitSeq)
	if pos == len(x.sts) || x.sts[pos] != st || x.keys[pos] != st.dlKey {
		return -1
	}
	return pos
}

// insert files st by its (dlKey, admitSeq). st must not be indexed.
func (x *deadlineIndex) insert(st *Stream) {
	pos, n := x.search(st.dlKey, st.admitSeq), len(x.keys)
	if pos < n {
		x.sums = x.sums[:0] // a memmove renumbers positions
	}
	if x.head > 0 && pos-x.head < n-pos {
		// The head side is shorter: slide it into the vacated slot.
		copy(x.keys[x.head-1:], x.keys[x.head:pos])
		copy(x.sts[x.head-1:], x.sts[x.head:pos])
		x.head--
		pos--
	} else {
		if n == cap(x.keys) && x.head >= n-x.head {
			// Full, and at least half of it is the dead prefix the head
			// left behind: reclaim that instead of growing.
			pos -= x.head
			n = copy(x.keys, x.keys[x.head:])
			copy(x.sts, x.sts[x.head:])
			clear(x.sts[n:])
			x.keys, x.sts, x.head, x.sums = x.keys[:n], x.sts[:n], 0, x.sums[:0]
		}
		x.keys = append(x.keys, 0)
		x.sts = append(x.sts, nil)
		if pos < n { // re-filing at the latest moves nothing
			copy(x.keys[pos+1:], x.keys[pos:n])
			copy(x.sts[pos+1:], x.sts[pos:n])
		}
	}
	x.keys[pos], x.sts[pos] = st.dlKey, st
	if len(x.sums) > 0 { // a tail append: fold it into its block
		if v, b := st.dlKey-si.Seconds(pos)*x.sumW, pos/dlBlock; b == len(x.sums) {
			x.sums = append(x.sums, v)
		} else if v < x.sums[b] {
			x.sums[b] = v
		}
	}
}

// remove unfiles st, panicking if find cannot locate it.
func (x *deadlineIndex) remove(st *Stream) {
	pos, last := x.find(st), len(x.keys)-1
	if pos < 0 {
		panic("engine: deadline index out of sync")
	}
	if pos > x.head {
		x.sums = x.sums[:0]
	}
	if pos-x.head <= last-pos {
		if pos > x.head { // serving the earliest moves nothing
			copy(x.keys[x.head+1:], x.keys[x.head:pos])
			copy(x.sts[x.head+1:], x.sts[x.head:pos])
		}
		x.sts[x.head] = nil
		x.head++
	} else {
		copy(x.keys[pos:], x.keys[pos+1:])
		copy(x.sts[pos:], x.sts[pos+1:])
		x.sts[last] = nil
		x.keys, x.sts = x.keys[:last], x.sts[:last]
	}
}

// lazyStart returns latestStartSorted(x.ascending(), w), the same float,
// without reading blocks that provably cannot hold the minimum. Since
// keys[p] − (p−head+1)·w = (keys[p] − p·w) + (head−1)·w, no candidate of
// block b is below sums[b] + (head−1)·w; a block where that, less the
// rounding margin, is no better than the running minimum is skipped, and
// every other block — always the head's, where the minimum usually sits —
// is scanned with latestStartSorted's own expression. A minimum does not
// depend on the order its candidates are read in. Indexes under two
// blocks take the plain scan.
func (x *deadlineIndex) lazyStart(w si.Seconds) si.Seconds {
	head, n := x.head, len(x.keys)
	if n-head < 2*dlBlock {
		return latestStartSorted(x.keys[head:], w)
	}
	if w != x.sumW || len(x.sums) == 0 {
		x.sumW, x.sums = w, x.sums[:0]
		for lo := 0; lo < n; lo += dlBlock {
			least := si.Seconds(math.Inf(1)) // a block of the dead prefix keeps this
			for p := max(lo, head); p < min(lo+dlBlock, n); p++ {
				if v := x.keys[p] - si.Seconds(p)*w; v < least {
					least = v
				}
			}
			x.sums = append(x.sums, least)
		}
	}
	shift := si.Seconds(head-1) * w
	slack := dlSlack * (max(-x.keys[head], x.keys[n-1]) + si.Seconds(n)*max(w, -w))
	best := x.keys[head] - w
	for b := head / dlBlock; b*dlBlock < n; b++ {
		lo := max(b*dlBlock, head)
		if lo > head && x.sums[b]+shift-slack >= best {
			continue
		}
		for p := lo; p < min((b+1)*dlBlock, n); p++ {
			if cand := x.keys[p] - si.Seconds(p-head+1)*w; cand < best {
				best = cand
			}
		}
	}
	return best - lazyMarginServices*w
}

// check validates the structure: keys mirror dlKey, the live region is
// strictly ascending (so no stream is filed twice), and summaries, when
// held, number one per block and bound every live member of theirs.
func (x *deadlineIndex) check() error {
	if len(x.keys) != len(x.sts) || x.head > len(x.keys) {
		return fmt.Errorf("%d keys, %d streams, head %d", len(x.keys), len(x.sts), x.head)
	}
	for i := x.head; i < len(x.sts); i++ {
		st := x.sts[i]
		if st == nil || x.keys[i] != st.dlKey {
			return fmt.Errorf("position %d: key %v does not mirror its stream", i, x.keys[i])
		}
		if i > x.head && !dlBefore(x.sts[i-1], st) {
			return fmt.Errorf("order violated at position %d", i)
		}
		if len(x.sums) > 0 && x.sums[i/dlBlock] > x.keys[i]-si.Seconds(i)*x.sumW {
			return fmt.Errorf("block summary %v above its member at position %d", x.sums[i/dlBlock], i)
		}
	}
	if blocks := (len(x.keys) + dlBlock - 1) / dlBlock; len(x.sums) > 0 && len(x.sums) != blocks {
		return fmt.Errorf("%d block summaries for %d blocks", len(x.sums), blocks)
	}
	return nil
}

// DeadlineIndexChurn exercises the deadline index with its hot-path
// operation mix at a fixed population: fill the index to n streams, then
// rounds times remove the earliest stream and re-file it behind the rest
// — each fill completion's remove+insert pair. It returns the final
// minimum's admission sequence as a checksum. The function exists for
// the tracked benchmark cases (internal/bench): once the backing arrays
// hold twice the population they stop growing, so cmd/bench's allocs/op
// gate pins the steady-state index path to zero allocations.
func DeadlineIndexChurn(n, rounds int) int64 {
	checksum, _ := LazyStartChurn(n, rounds, 0)
	return checksum
}

// LazyStartChurn is DeadlineIndexChurn plus, for w > 0, what a
// Round-Robin dispatch pays on top of the pair: after each re-file the
// lazy-start rule is evaluated over the n indexed deadlines at worst
// service time w, the way rrScheduler.Next does. The sum of the computed
// starts is a second checksum.
func LazyStartChurn(n, rounds int, w si.Seconds) (checksum int64, starts si.Seconds) {
	if n <= 0 {
		return -1, 0
	}
	var idx deadlineIndex
	deadline := si.Seconds(0)
	for i := 0; i < n; i++ {
		deadline += si.Seconds(1+i%7) / 16
		idx.insert(&Stream{id: i, admitSeq: int64(i), dlKey: deadline})
	}
	seq := int64(n)
	for r := 0; r < rounds; r++ {
		st := idx.min()
		idx.remove(st)
		deadline += si.Seconds(1+r%7) / 16
		seq++
		st.dlKey, st.admitSeq = deadline, seq
		idx.insert(st)
		if w > 0 {
			starts += idx.lazyStart(w)
		}
	}
	return idx.min().admitSeq, starts
}
