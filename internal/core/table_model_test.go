package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
)

// tableCase is one table the model test builds: a disk, a latency model
// and an inertia slack.
type tableCase struct {
	name string
	p    core.Params
	dl   core.DLModel
}

// tableCases covers every scheduling method on the paper's disk (N = 79)
// and on the modern nearline disk (N = 1599) at α ∈ {1, 2, 3}, plus a
// constant latency model at the smallest N and at the paper's.
func tableCases() []tableCase {
	cr := si.Mbps(1.5)
	var cases []tableCase
	for _, spec := range []diskmodel.Spec{diskmodel.Barracuda9LP(), diskmodel.ModernNearline()} {
		for _, kind := range sched.Kinds {
			for alpha := 1; alpha <= 3; alpha++ {
				p := core.Params{TR: spec.TransferRate, CR: cr, N: spec.MaxConcurrent(cr), Alpha: alpha}
				cases = append(cases, tableCase{
					name: fmt.Sprintf("N%d/%v/alpha%d", p.N, kind, alpha),
					p:    p,
					dl:   sched.NewMethod(kind).DLModel(spec),
				})
			}
		}
	}
	for _, n := range []int{1, 2, 79} {
		p := core.Params{TR: diskmodel.Barracuda9LP().TransferRate, CR: cr, N: n, Alpha: 2}
		cases = append(cases, tableCase{name: fmt.Sprintf("N%d/ConstDL/alpha2", n), p: p, dl: core.ConstDL(7 * si.Millisecond)})
	}
	return cases
}

// Every table entry equals the Theorem 1 reference, DynamicSize at the
// row's latency, bit for bit: whichever way NewTable fills a row, a table
// lookup and a direct evaluation allocate exactly the same buffer.
func TestTableMatchesDynamicSizeBitForBit(t *testing.T) {
	for _, c := range tableCases() {
		t.Run(c.name, func(t *testing.T) {
			tab := core.NewTable(c.p, c.dl)
			for n := 1; n <= c.p.N; n++ {
				dl := c.dl(n)
				for k := 0; k <= c.p.N-n; k++ {
					if got, want := tab.Size(n, k), c.p.DynamicSize(dl, n, k); got != want {
						t.Fatalf("Size(%d, %d) = %v, want DynamicSize = %v", n, k, got, want)
					}
				}
			}
		})
	}
}

// NewTableWith evaluates the latency model once per row; on a model that
// varies with n every entry still sees its own row's latency.
func TestTableWithMatchesSizeFunction(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	p := core.Params{TR: spec.TransferRate, CR: si.Mbps(1.5), N: spec.MaxConcurrent(si.Mbps(1.5)), Alpha: 1}
	dl := sched.NewMethod(sched.Sweep).DLModel(spec)
	for name, size := range map[string]func(core.Params, si.Seconds, int, int) si.Bits{
		"naive": core.Params.NaiveSize, "dybase": core.Params.DybaseSize,
	} {
		tab := core.NewTableWith(p, dl, size)
		for n := 1; n <= p.N; n++ {
			for k := 0; k <= p.N-n; k++ {
				if got, want := tab.Size(n, k), size(p, dl(n), n, k); got != want {
					t.Fatalf("%s: Size(%d, %d) = %v, want %v", name, n, k, got, want)
				}
			}
		}
	}
}

// A table is a constant number of allocations whatever its size: the
// struct, the row headers and one backing array.
func TestTableAllocsIndependentOfN(t *testing.T) {
	allocs := func(spec diskmodel.Spec) float64 {
		cr := si.Mbps(1.5)
		p := core.Params{TR: spec.TransferRate, CR: cr, N: spec.MaxConcurrent(cr), Alpha: 1}
		dl := sched.NewMethod(sched.RoundRobin).DLModel(spec)
		return testing.AllocsPerRun(3, func() { core.NewTable(p, dl) })
	}
	small, large := allocs(diskmodel.Barracuda9LP()), allocs(diskmodel.ModernNearline())
	if small != large || large > 3 {
		t.Errorf("NewTable allocates %v objects at N = 79 and %v at N = 1599, want the same count, at most 3", small, large)
	}
}
