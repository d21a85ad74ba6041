package core

import (
	"fmt"

	"repro/internal/si"
)

// DLModel maps the number of requests in service to the per-service worst
// disk latency of a scheduling method. Round-Robin's latency is constant
// in n; Sweep*'s is γ(Cyln/n) + θ, and GSS*'s γ(Cyln/min(g, n)) + θ.
type DLModel func(n int) si.Seconds

// ConstDL adapts a constant latency to a DLModel.
func ConstDL(dl si.Seconds) DLModel { return func(int) si.Seconds { return dl } }

// Table holds the precomputed buffer sizes §3.3 recommends: Theorem 1 needs
// a product chain per evaluation, so a server computes all (n, k) pairs at
// initialization and indexes at allocation time. The table is the triangle
// of N(N+1)/2 entries in one backing array: 3,160 entries (about 25 kB)
// for the Barracuda's N = 79, and 1,279,200 (about 10.2 MB) for the modern
// nearline disk's N = 1599.
type Table struct {
	p     Params
	sizes [][]si.Bits // sizes[n][k], n in [1,N], k in [0,N−n]
}

// newTable validates p and lays out an unfilled table: row n is a
// cap-clipped window of one shared backing array.
func newTable(p Params) *Table {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	flat := make([]si.Bits, p.N*(p.N+1)/2)
	t := &Table{p: p, sizes: make([][]si.Bits, p.N+1)}
	for n := 1; n <= p.N; n++ {
		w := p.N - n + 1
		t.sizes[n], flat = flat[:w:w], flat[w:]
	}
	return t
}

// NewTable precomputes DynamicSize for every reachable (n, k) pair under
// the given per-method latency model.
//
// Rows are filled from n = N down. While every row so far shares row N's
// latency (all of a Round-Robin or ConstDL table, GSS*'s rows n ≥ g), an
// entry is one step of Theorem 1's recurrence over entries already
// filled:
//
//	BS_k(n) = (n+k) · (BS_{min(k+α, N−n−k)}(n+k)/TR + dl) · CR
//
// with BS(N) standing in once n+k reaches N. These are DynamicSize's
// operands in its backward loop's order, so each entry is bit-identical
// to it. k walks down because k = 0 reads k = α of its own row. Below the
// first row whose latency differs (Sweep*, GSS*'s rows n < g), the chain
// of a row reaches rows with another latency, so each entry walks its own
// chain through DynamicSize.
func NewTable(p Params, dl DLModel) *Table {
	t := newTable(p)
	N := p.N
	dlN := dl(N)
	t.sizes[N][0] = p.StaticSize(dlN, N)
	bsN := float64(t.sizes[N][0])
	tr, cr, dlf := float64(p.TR), float64(p.CR), float64(dlN)
	uniform := true
	for n := N - 1; n >= 1; n-- {
		d, row := dl(n), t.sizes[n]
		uniform = uniform && d == dlN
		if !uniform {
			for k := range row {
				row[k] = p.DynamicSize(d, n, k)
			}
			continue
		}
		for k := len(row) - 1; k >= 0; k-- {
			m, next := n+k, bsN
			if m < N {
				next = float64(t.sizes[m][min(k+p.Alpha, N-m)])
			}
			row[k] = si.Bits(float64(m) * (next/tr + dlf) * cr)
		}
	}
	return t
}

// NewTableWith precomputes an arbitrary sizing function for every
// reachable (n, k) pair under the given per-method latency model. It is
// how the naive and DYBASE comparison schemes get the same compute-once,
// index-per-fill treatment §3.3 prescribes for the dynamic scheme: pass
// Params.NaiveSize or Params.DybaseSize (any function whose result
// saturates at the full-load size for k ≥ N−n, matching Size's clamp).
func NewTableWith(p Params, dl DLModel, size func(Params, si.Seconds, int, int) si.Bits) *Table {
	t := newTable(p)
	for n := 1; n <= p.N; n++ {
		d, row := dl(n), t.sizes[n]
		for k := range row {
			row[k] = size(p, d, n, k)
		}
	}
	return t
}

// Params returns the parameters the table was built with.
func (t *Table) Params() Params { return t.p }

// Size returns the precomputed BS_k(n). k beyond N−n is clamped (a
// prediction exceeding capacity sizes for full load). It panics on n
// outside [1, N]: the caller's admission control owns that bound.
func (t *Table) Size(n, k int) si.Bits {
	if n < 1 || n > t.p.N {
		panic(fmt.Sprintf("core: table lookup with n = %d outside [1, %d]", n, t.p.N))
	}
	if k < 0 {
		panic(fmt.Sprintf("core: table lookup with negative k = %d", k))
	}
	if k > t.p.N-n {
		k = t.p.N - n
	}
	return t.sizes[n][k]
}

// MemoryFootprint reports the number of entries the table stores, for
// documentation of the O(N²) claim.
func (t *Table) MemoryFootprint() int {
	total := 0
	for _, row := range t.sizes {
		total += len(row)
	}
	return total
}
