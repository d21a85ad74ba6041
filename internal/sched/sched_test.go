package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/diskmodel"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{RoundRobin, "Round-Robin"},
		{Sweep, "Sweep*"},
		{GSS, "GSS*"},
		{Kind(42), "sched.Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for s, want := range map[string]Kind{"rr": RoundRobin, "sweep": Sweep, "gss": GSS} {
		if got, err := ParseKind(s); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("elevator"); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestNewMethodDefaults(t *testing.T) {
	if m := NewMethod(GSS); m.Group != DefaultGSSGroup {
		t.Errorf("GSS group = %d, want %d", m.Group, DefaultGSSGroup)
	}
	if m := NewMethod(RoundRobin); m.Group != 0 {
		t.Errorf("RR group = %d, want 0", m.Group)
	}
	if got := NewMethod(GSS).String(); got != "GSS*(g=8)" {
		t.Errorf("String = %q", got)
	}
}

func TestMethodValidate(t *testing.T) {
	if err := (Method{Kind: GSS}).Validate(); err == nil {
		t.Error("GSS with zero group should fail")
	}
	if err := (Method{Kind: Kind(9)}).Validate(); err == nil {
		t.Error("unknown kind should fail")
	}
	for _, k := range Kinds {
		if err := NewMethod(k).Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestWorstDLValues(t *testing.T) {
	spec := diskmodel.Barracuda9LP()

	// Round-Robin: gamma(6000) + theta = 13.4 + 8.33 ms, any n.
	rr := NewMethod(RoundRobin)
	for _, n := range []int{1, 40, 79} {
		if got := rr.WorstDL(spec, n).Milliseconds(); math.Abs(got-21.73) > 1e-6 {
			t.Errorf("RR DL(n=%d) = %vms, want 21.73", n, got)
		}
	}

	// Sweep with n = 1 sweeps the whole disk: same as RR.
	sw := NewMethod(Sweep)
	if got, want := sw.WorstDL(spec, 1), rr.WorstDL(spec, 1); got != want {
		t.Errorf("Sweep DL(1) = %v, want %v", got, want)
	}
	// Sweep with n = 60: gamma(100) + theta = 0.54 + 0.26*10 + 8.33.
	want := 0.54 + 2.6 + 8.33
	if got := sw.WorstDL(spec, 60).Milliseconds(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Sweep DL(60) = %vms, want %v", got, want)
	}

	// GSS with g=8: gamma(750) + theta = 5 + 0.0014*750 + 8.33, for n >= 8.
	gss := NewMethod(GSS)
	wantGSS := 5 + 0.0014*750 + 8.33
	if got := gss.WorstDL(spec, 40).Milliseconds(); math.Abs(got-wantGSS) > 1e-6 {
		t.Errorf("GSS DL(40) = %vms, want %v", got, wantGSS)
	}
	// GSS with fewer requests than a group degenerates to Sweep.
	if got, want := gss.WorstDL(spec, 3), sw.WorstDL(spec, 3); got != want {
		t.Errorf("GSS DL(3) = %v, want Sweep's %v", got, want)
	}
	// n < 1 clamps to 1.
	if got, want := sw.WorstDL(spec, 0), sw.WorstDL(spec, 1); got != want {
		t.Errorf("DL(0) = %v, want DL(1) = %v", got, want)
	}
}

// Property: latency ordering DL_RR >= DL_GSS >= DL_Sweep for any n >= g,
// and all DLs at least theta.
func TestWorstDLOrdering(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	rr, sw, gss := NewMethod(RoundRobin), NewMethod(Sweep), NewMethod(GSS)
	f := func(nRaw uint8) bool {
		n := 8 + int(nRaw)%72
		a, b, c := rr.WorstDL(spec, n), gss.WorstDL(spec, n), sw.WorstDL(spec, n)
		return a >= b && b >= c && c >= spec.MaxRotational
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDLModel(t *testing.T) {
	spec := diskmodel.Barracuda9LP()
	m := NewMethod(Sweep)
	dl := m.DLModel(spec)
	for _, n := range []int{1, 10, 79} {
		if got, want := dl(n), m.WorstDL(spec, n); got != want {
			t.Errorf("DLModel(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestGroups(t *testing.T) {
	tests := []struct {
		m    Method
		n    int
		want int
	}{
		{NewMethod(RoundRobin), 5, 5},
		{NewMethod(Sweep), 5, 1},
		{NewMethod(GSS), 16, 2},
		{NewMethod(GSS), 17, 3},
		{NewMethod(GSS), 7, 1},
		{NewMethod(GSS), 0, 0},
		{NewMethod(RoundRobin), -1, 0},
	}
	for _, tt := range tests {
		if got := tt.m.Groups(tt.n); got != tt.want {
			t.Errorf("%v.Groups(%d) = %d, want %d", tt.m, tt.n, got, tt.want)
		}
	}
}
