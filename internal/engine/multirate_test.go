package engine

import (
	"testing"

	"repro/internal/si"
	"repro/internal/workload"
)

// loadedDisk builds a system on ladder and fills its one disk with
// streams at every rung in turn, leaving it mid-day with streams of every
// rung in service — a mixed-rate population on a three-rung ladder, the
// paper's uniform one on a single rung. tweak is ladderSystem's.
func loadedDisk(t *testing.T, ladder []si.BitRate, tweak func(*Config)) *Disk {
	t.Helper()
	sys := ladderSystem(t, DynamicAllocator{}, ladder, tweak)
	vc := sys.Clock().(*VirtualClock)
	for i := 0; i < 24; i++ {
		vc.Run(si.Seconds(i * 2))
		sys.OnArrival(workload.Request{
			ID: i, Arrival: si.Seconds(i * 2), Video: i % 6, Disk: 0,
			Viewing: si.Minutes(30), Rate: ladder[i%len(ladder)],
		})
	}
	vc.Run(si.Seconds(120))
	d := sys.Disk(0)
	if d.InService() < 12 {
		t.Fatalf("only %d streams in service, want a loaded disk", d.InService())
	}
	return d
}

// ladders are the two regimes of the one sizing path.
var ladders = map[string][]si.BitRate{
	"uniform": {si.Mbps(1.5)},
	"ladder":  {si.Mbps(1.5), si.Mbps(1.0), si.Mbps(0.5)},
}

// The planning path runs on every fill of every stream: the per-scheme
// PlanSize bound over the rates actually in service must stay
// allocation-free at steady state, on one rate and on several.
func TestMultiRatePlanSizeAllocFree(t *testing.T) {
	for name, ladder := range ladders {
		d := loadedDisk(t, ladder, nil)
		n := d.InService()
		allocators := []Allocator{
			StaticAllocator{}, DynamicAllocator{}, NaiveAllocator{},
		}
		for _, a := range allocators {
			a.PlanSize(d, n) // warm the lazily built per-rate tables
		}
		for _, a := range allocators {
			allocs := testing.AllocsPerRun(1000, func() {
				_ = a.PlanSize(d, n)
			})
			if allocs != 0 {
				t.Errorf("%s: %T.PlanSize allocates %v objects/op, want 0", name, a, allocs)
			}
		}
	}
}

// The admission test — sizing-context lookup, count cap, bandwidth cap —
// also runs per arrival and must not allocate.
func TestMultiRateFitsRateAllocFree(t *testing.T) {
	for name, ladder := range ladders {
		d := loadedDisk(t, ladder, nil)
		allocs := testing.AllocsPerRun(1000, func() {
			for _, r := range ladder {
				_ = d.sys.ctxFor(r) != nil && d.fitsRate(r)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: the arrival-time rate checks allocate %v objects/op, want 0", name, allocs)
		}
	}
}
