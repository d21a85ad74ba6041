package core

import (
	"testing"

	"repro/internal/si"
)

func TestTableMatchesDirectEvaluation(t *testing.T) {
	p := paperParams()
	tab := NewTable(p, ConstDL(dlRR()))
	for n := 1; n <= p.N; n++ {
		for k := 0; k <= p.N-n; k++ {
			if got, want := tab.Size(n, k), p.DynamicSize(dlRR(), n, k); got != want {
				t.Fatalf("table[%d][%d] = %v, want %v", n, k, got, want)
			}
		}
	}
}

func TestTableWithNDependentDL(t *testing.T) {
	p := paperParams()
	// A Sweep-like model: latency shrinks as n grows.
	dl := func(n int) si.Seconds { return si.Seconds(0.020 / float64(n)) }
	tab := NewTable(p, dl)
	for _, n := range []int{1, 7, 40, 79} {
		if got, want := tab.Size(n, 0), p.DynamicSize(dl(n), n, 0); got != want {
			t.Errorf("table[%d][0] = %v, want %v", n, got, want)
		}
	}
}

func TestTableClampsK(t *testing.T) {
	p := paperParams()
	tab := NewTable(p, ConstDL(dlRR()))
	if got, want := tab.Size(70, 50), tab.Size(70, p.N-70); got != want {
		t.Errorf("k clamp: got %v, want %v", got, want)
	}
}

func TestTablePanics(t *testing.T) {
	tab := NewTable(paperParams(), ConstDL(dlRR()))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("n = 0", func() { tab.Size(0, 0) })
	mustPanic("n > N", func() { tab.Size(80, 0) })
	mustPanic("k < 0", func() { tab.Size(1, -1) })
	mustPanic("bad params", func() { NewTable(Params{}, ConstDL(dlRR())) })
}

// Section 3.3 claims O(N²) space; the table stores exactly N(N+1)/2
// entries (one per reachable (n,k) pair).
func TestTableFootprint(t *testing.T) {
	p := paperParams()
	tab := NewTable(p, ConstDL(dlRR()))
	if got, want := tab.MemoryFootprint(), p.N*(p.N+1)/2; got != want {
		t.Errorf("footprint = %d entries, want %d", got, want)
	}
	if got := tab.Params(); got != p {
		t.Errorf("Params() = %+v, want %+v", got, p)
	}
}

// The per-fill sizing path — one table lookup — and the Theorem 1
// recurrence the table memoizes allocate nothing.
func TestSizingAllocFree(t *testing.T) {
	p := paperParams()
	dl := dlRR()
	tab := NewTable(p, ConstDL(dl))
	i := 0
	var sum si.Bits
	allocs := testing.AllocsPerRun(1000, func() {
		sum += tab.Size(1+i%p.N, i%8)
		sum += p.DynamicSize(dl, 1+i%p.N, i%4)
		i++
	})
	if allocs != 0 {
		t.Errorf("Table.Size + DynamicSize allocate %v objects/op, want 0", allocs)
	}
	if sum <= 0 {
		t.Errorf("sizes summed to %v", sum)
	}
}
