package sim

import (
	"fmt"

	"repro/internal/engine"
)

// Scheme selects the buffer allocation scheme a simulated server runs.
type Scheme int

const (
	// Static is the baseline of Section 2.3: every buffer gets the
	// full-load size BS(N), and admission checks capacity only.
	Static Scheme = iota

	// Dynamic is the paper's contribution (Section 3): buffers are sized
	// by Theorem 1 for the current load and prediction, and the inertia
	// assumptions are enforced by deferring violating admissions.
	Dynamic

	// Naive is the flawed strawman of Section 3.1 (Fig. 3): Eq. 5
	// evaluated at n+k, with no recurrence and no enforcement. It exists
	// to demonstrate the underruns the paper predicts.
	Naive

	// Knee is the memory-knee-aware fourth scheme (DESIGN.md §7, the
	// memory knee): the dynamic scheme with admission capped at half the
	// disk's capacity — the Theorem 1 memory knee — trading peak
	// concurrency for an order-of-magnitude smaller per-stream memory near
	// the cap. It pairs with downgrading admission, which converts the
	// capped capacity into lower ladder rungs instead of rejections.
	Knee
)

// Schemes lists the schemes in presentation order.
var Schemes = []Scheme{Static, Dynamic, Naive, Knee}

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Naive:
		return "naive"
	case Knee:
		return "knee"
	default:
		return fmt.Sprintf("sim.Scheme(%d)", int(s))
	}
}

// AllocatorFor returns the engine Allocator that implements the scheme:
// the static full-load size, the paper's predict-and-enforce dynamic
// allocation, or the naive strawman.
func AllocatorFor(s Scheme) engine.Allocator {
	switch s {
	case Static:
		return engine.StaticAllocator{}
	case Dynamic:
		return engine.DynamicAllocator{}
	case Knee:
		return engine.KneeAllocator{}
	default:
		return engine.NaiveAllocator{}
	}
}

// ParseScheme maps a name produced by String back to its Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	case "naive":
		return Naive, nil
	case "knee":
		return Knee, nil
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", s)
}
