// Package sched models the three buffer scheduling methods the paper
// validates the dynamic allocation scheme against (Section 2.2):
//
//   - Round-Robin, run with the BubbleUp refinement: buffers are serviced
//     in allocation order at equal spacing, and a newly arriving request
//     is serviced right after the service in execution completes.
//   - Sweep*, which services buffers in disk-position order to minimize
//     seek time and delays the period's last service as late as possible
//     to maximize memory sharing.
//   - GSS* (Grouped Sweeping Scheduling), the hybrid: groups of g buffers
//     are serviced BubbleUp-style round-robin, members of a group are
//     swept.
//
// The package provides the analysis-side constants of each method — the
// per-service worst disk latency DL that feeds the sizing equations — and
// the ordering primitives the simulator uses at runtime.
package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/si"
)

// Kind identifies a buffer scheduling method.
type Kind int

const (
	// RoundRobin is the Round-Robin method run with BubbleUp.
	RoundRobin Kind = iota
	// Sweep is the Sweep* method.
	Sweep
	// GSS is the GSS* method.
	GSS
)

// Kinds lists every method, in the paper's presentation order.
var Kinds = []Kind{RoundRobin, Sweep, GSS}

// String returns the paper's name for the method.
func (k Kind) String() string {
	switch k {
	case RoundRobin:
		return "Round-Robin"
	case Sweep:
		return "Sweep*"
	case GSS:
		return "GSS*"
	default:
		return fmt.Sprintf("sched.Kind(%d)", int(k))
	}
}

// ParseKind maps a name (as printed by String, or the lowercase aliases
// "rr", "roundrobin", "sweep", "gss") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "Round-Robin", "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "Sweep*", "sweep":
		return Sweep, nil
	case "GSS*", "gss":
		return GSS, nil
	}
	return 0, fmt.Errorf("sched: unknown scheduling method %q", s)
}

// Method is a scheduling method instance: a Kind plus its parameters.
type Method struct {
	Kind Kind

	// Group is the number of buffers per group, g. Used only by GSS;
	// the paper uses 8 (the memory-minimizing choice for the Barracuda).
	Group int
}

// DefaultGSSGroup is the paper's group size for the GSS* experiments.
const DefaultGSSGroup = 8

// NewMethod returns a Method for the kind with the paper's parameters.
func NewMethod(k Kind) Method {
	m := Method{Kind: k}
	if k == GSS {
		m.Group = DefaultGSSGroup
	}
	return m
}

// Validate reports whether the method is usable.
func (m Method) Validate() error {
	switch m.Kind {
	case RoundRobin, Sweep:
		return nil
	case GSS:
		if m.Group < 1 {
			return fmt.Errorf("sched: GSS* needs a positive group size, got %d", m.Group)
		}
		return nil
	default:
		return fmt.Errorf("sched: unknown kind %d", int(m.Kind))
	}
}

// String names the method, including the group size for GSS.
func (m Method) String() string {
	if m.Kind == GSS {
		return fmt.Sprintf("GSS*(g=%d)", m.Group)
	}
	return m.Kind.String()
}

// WorstDL reports the worst-case disk latency budget for servicing one
// buffer when n requests are in service (Section 2.2):
//
//	Round-Robin:  γ(Cyln) + θ
//	Sweep*:       γ(Cyln/n) + θ
//	GSS*:         γ(Cyln/g) + θ
//
// n below 1 is treated as 1 (a lone request sweeps the whole disk in the
// worst case). For GSS the effective divisor is min(g, n): with fewer
// requests than a group holds, GSS* degenerates to Sweep*.
func (m Method) WorstDL(spec diskmodel.Spec, n int) si.Seconds {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if n < 1 {
		n = 1
	}
	div := 1
	switch m.Kind {
	case RoundRobin:
		div = 1
	case Sweep:
		div = n
	case GSS:
		div = m.Group
		if n < div {
			div = n
		}
	}
	return spec.SeekTime(spec.Cylinders/div) + spec.MaxRotational
}

// DLModel adapts WorstDL to the sizing table's latency-model interface.
func (m Method) DLModel(spec diskmodel.Spec) core.DLModel {
	return func(n int) si.Seconds { return m.WorstDL(spec, n) }
}

// Groups reports the number of groups the method forms over n requests:
// ⌈n/g⌉ for GSS, 1 for Sweep (one sweep covers everyone), and n for
// Round-Robin (every buffer is its own service unit).
func (m Method) Groups(n int) int {
	if n < 1 {
		return 0
	}
	switch m.Kind {
	case RoundRobin:
		return n
	case Sweep:
		return 1
	default:
		return (n + m.Group - 1) / m.Group
	}
}
