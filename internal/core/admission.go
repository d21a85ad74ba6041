package core

import (
	"fmt"
	"math"
)

// Allocation is the inertia snapshot recorded when a buffer is allocated to
// a request: the number of requests then in service (N) and the number of
// additional requests then predicted (K). Enforcement of Assumptions 1 and
// 2 compares the current state against these snapshots.
type Allocation struct {
	N int // n_i: requests in service at allocation time
	K int // k_i: estimated additional requests at allocation time
}

// Book tracks, for every request in service, the Allocation recorded at its
// most recent buffer allocation. It answers the two aggregate questions the
// allocation algorithm (Fig. 5) asks: min_i(n_i + k_i) for admission
// control and min_i(k_i) for prediction capping.
//
// The snapshots are stored densely — an id -> position map beside a slice
// with swap-removal, as buffer.Pool keeps its streams — so the rescan that
// follows the departure of a min's last holder walks contiguous memory: a
// modern disk carries hundreds of requests, not the paper's N ≈ 79.
type Book struct {
	pos    map[int]int // request id -> position in allocs
	allocs []bookEntry
	// The mins are read on every scheduling decision and mutated on every
	// allocation, so they are maintained incrementally: the cached min
	// plus a count of entries holding it. A full rescan happens only when
	// the last holder of a min leaves or grows — rare in steady state.
	minNK, minK int
	cntNK, cntK int
	dirty       bool
}

type bookEntry struct {
	id int
	a  Allocation
}

// NewBook returns an empty book.
func NewBook() *Book {
	return &Book{minNK: math.MaxInt, minK: math.MaxInt}
}

// bookHint sizes the first allocation of a book's storage, made when the
// first snapshot is recorded (a static-scheme disk never records one): a
// paper-sized disk then never regrows it.
const bookHint = 32

// Set records the allocation snapshot for the request with the given id.
func (b *Book) Set(id int, a Allocation) {
	if a.N < 1 || a.K < 0 {
		panic(fmt.Sprintf("core: invalid allocation snapshot %+v", a))
	}
	if i, ok := b.pos[id]; ok {
		old := b.allocs[i].a
		if old == a {
			return // same contents, same mins: nothing to maintain
		}
		b.forget(old)
		b.allocs[i].a = a
	} else {
		if b.pos == nil {
			b.pos, b.allocs = make(map[int]int, bookHint), make([]bookEntry, 0, bookHint)
		}
		b.pos[id] = len(b.allocs)
		b.allocs = append(b.allocs, bookEntry{id, a})
	}
	if !b.dirty {
		b.admitMin(a)
	}
}

// Remove forgets a departed request. Removing an unknown id is a no-op:
// a request that was admitted but never serviced has no snapshot.
func (b *Book) Remove(id int) {
	i, ok := b.pos[id]
	if !ok {
		return
	}
	old, last := b.allocs[i].a, len(b.allocs)-1
	delete(b.pos, id)
	if i != last {
		b.allocs[i] = b.allocs[last]
		b.pos[b.allocs[i].id] = i
	}
	b.allocs = b.allocs[:last]
	b.forget(old)
}

// forget retires an entry's contribution to the cached mins.
func (b *Book) forget(old Allocation) {
	if b.dirty {
		return
	}
	if old.N+old.K == b.minNK {
		if b.cntNK--; b.cntNK == 0 {
			b.dirty = true
		}
	}
	if old.K == b.minK {
		if b.cntK--; b.cntK == 0 {
			b.dirty = true
		}
	}
}

// admitMin folds a new entry into the cached mins.
func (b *Book) admitMin(a Allocation) {
	switch s := a.N + a.K; {
	case s < b.minNK:
		b.minNK, b.cntNK = s, 1
	case s == b.minNK:
		b.cntNK++
	}
	switch {
	case a.K < b.minK:
		b.minK, b.cntK = a.K, 1
	case a.K == b.minK:
		b.cntK++
	}
}

// Len reports the number of requests with a recorded snapshot.
func (b *Book) Len() int { return len(b.allocs) }

func (b *Book) refresh() {
	b.minNK, b.minK = math.MaxInt, math.MaxInt
	b.cntNK, b.cntK = 0, 0
	for i := range b.allocs {
		b.admitMin(b.allocs[i].a)
	}
	b.dirty = false
}

// MinNK returns min_i(n_i + k_i), or math.MaxInt when the book is empty.
func (b *Book) MinNK() int {
	if b.dirty || len(b.allocs) == 0 {
		b.refresh()
	}
	return b.minNK
}

// MinK returns min_i(k_i), or math.MaxInt when the book is empty.
func (b *Book) MinK() int {
	if b.dirty || len(b.allocs) == 0 {
		b.refresh()
	}
	return b.minK
}

// Admit implements Procedure Admission_Control of Fig. 5: a newly arriving
// request may be admitted only if, with it admitted, the number of requests
// in service stays within every in-service buffer's sizing assumption:
//
//	(n+1) <= min_i(n_i + k_i)
//
// and within the disk's capacity N. n is the number of requests currently
// in service (which may exceed b.Len() when some admitted requests have not
// yet received their first buffer).
func Admit(b *Book, n, nmax int) bool {
	if n+1 > nmax {
		return false
	}
	return n+1 <= b.MinNK()
}

// AdmitBudget implements the churn-safe form of the same enforcement.
// Here b records, for every in-service buffer, Allocation{N: the
// cumulative admission count stamped at its most recent fill, K: k_i},
// so MinNK() is min_i(stamp_i + k_i) and one more admission is safe iff
// every buffer still has budget — admitted − stamp_i < k_i for all i:
//
//	admitted + 1 <= min_i(stamp_i + k_i)
//
// where admitted is the cumulative admission count so far.
//
// While no stream departs inside an open usage period, admissions are
// pure growth (admitted − stamp_i = n − n_i) and this is exactly Admit's
// concurrency rule — the paper's regime, where viewing times dwarf usage
// periods. Under heavy churn the concurrency rule lets a replacement
// (departure + new admission, net zero load) through unchecked even
// though its first fill consumes a service slot the open windows were
// sized for; charging every admission against the k_i budgets is what
// Theorem 2's service counting actually requires.
func AdmitBudget(b *Book, admitted int) bool {
	return admitted+1 <= b.MinNK()
}
