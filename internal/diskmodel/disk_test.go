package diskmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/si"
)

func TestDiskReadTiming(t *testing.T) {
	d := NewDisk(Barracuda9LP(), 1)
	spec := d.Spec()

	// A read at the head's cylinder costs no seek: time is rotation + xfer
	// and rotation is bounded by theta.
	amount := si.Megabits(12) // 0.1 s of transfer
	took := d.Read(0, amount)
	xfer := spec.TransferRate.TimeToTransfer(amount)
	if took < xfer || took > xfer+spec.MaxRotational {
		t.Errorf("same-cylinder read took %v, want within [%v, %v]", took, xfer, xfer+spec.MaxRotational)
	}
}

func TestDiskHeadAdvances(t *testing.T) {
	spec := Barracuda9LP()
	d := NewDisk(spec, 1)
	per := spec.BitsPerCylinder()
	d.Read(100, per*5) // extent spans 5 cylinders from 100
	if got := d.Head(); got != 105 {
		t.Errorf("head = %d, want 105", got)
	}
	// Head clamps at the last cylinder.
	d.Read(d.Spec().Cylinders-2, per*10)
	if got := d.Head(); got != d.Spec().Cylinders-1 {
		t.Errorf("head = %d, want clamp at %d", got, d.Spec().Cylinders-1)
	}
}

func TestDiskReadPanics(t *testing.T) {
	d := NewDisk(Barracuda9LP(), 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("negative cylinder", func() { d.Read(-1, 10) })
	mustPanic("cylinder beyond disk", func() { d.Read(d.Spec().Cylinders, 10) })
	mustPanic("negative amount", func() { d.Read(0, -1) })
}

func TestDiskStats(t *testing.T) {
	d := NewDisk(Barracuda9LP(), 42)
	d.Read(500, si.Megabits(1))
	d.Read(4000, si.Megabits(2))
	st := d.Stats()
	if st.Reads != 2 {
		t.Errorf("reads = %d, want 2", st.Reads)
	}
	if st.BitsMoved != si.Megabits(3) {
		t.Errorf("bits moved = %v, want 3 Mbit", st.BitsMoved)
	}
	if st.LongestSeek < 3400 { // at least 4000-600ish
		t.Errorf("longest seek = %d, suspiciously small", st.LongestSeek)
	}
	if st.TotalSeek <= 0 || st.TotalXfer <= 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
}

func TestDiskDeterminism(t *testing.T) {
	run := func() []si.Seconds {
		d := NewDisk(Barracuda9LP(), 7)
		var out []si.Seconds
		for i := 0; i < 50; i++ {
			out = append(out, d.Read((i*997)%d.Spec().Cylinders, si.Megabits(1)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: every read's duration is bounded below by the pure transfer
// time and above by transfer + worst seek + worst rotation.
func TestReadTimeBounds(t *testing.T) {
	d := NewDisk(Barracuda9LP(), 99)
	spec := d.Spec()
	f := func(cylRaw uint16, amountRaw uint32) bool {
		cyl := int(cylRaw) % spec.Cylinders
		amount := si.Bits(amountRaw % 1e8)
		took := d.Read(cyl, amount)
		lo := spec.TransferRate.TimeToTransfer(amount)
		hi := lo + spec.WorstSeek() + spec.MaxRotational
		return took >= lo-1e-12 && took <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean sampled rotational delay converges to theta/2.
func TestRotationalDelayMean(t *testing.T) {
	d := NewDisk(Barracuda9LP(), 3)
	spec := d.Spec()
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		took := d.Read(d.Head(), 0) // zero-length read at head: pure rotation
		sum += float64(took)
	}
	mean := sum / n
	want := float64(spec.MaxRotational) / 2
	if math.Abs(mean-want) > 0.03*want {
		t.Errorf("mean rotational delay = %v, want about %v", mean, want)
	}
}
