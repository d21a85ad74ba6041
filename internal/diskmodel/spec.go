// Package diskmodel implements the storage substrate of the reproduction:
// a parametric magnetic-disk model with the two-piece seek-time curve of
// Ruemmler & Wilkes used by the paper (Eq. 7), the Seagate Barracuda 9LP
// parameter set of Table 3, and a simulated disk with head state that
// reports the actual time every read takes.
//
// Two views of the disk coexist, mirroring the paper:
//
//   - The worst-case view (Spec methods) feeds the analysis: worst seek,
//     worst rotational delay, and the derived per-method disk latencies.
//   - The actual view (Disk methods) feeds the simulation: seeks cost
//     γ(distance actually travelled) and rotational delay is sampled
//     uniformly from [0, MaxRotational].
package diskmodel

import (
	"fmt"
	"math"

	"repro/internal/si"
)

// Spec describes a disk by the parameters the paper's model needs.
// The zero value is not usable; start from Barracuda9LP or fill every field.
//
// The geometry methods the simulation calls on every fill — SeekTime,
// BitsPerCylinder, CylinderOf — have pointer receivers so a call does not
// copy the struct; the analysis-side methods keep value receivers.
type Spec struct {
	// Name identifies the drive in output.
	Name string

	// Capacity is the formatted capacity of the drive.
	Capacity si.Bits

	// TransferRate is the minimum sustained transfer rate TR. The paper
	// uses the minimum so that guarantees hold on inner tracks.
	TransferRate si.BitRate

	// RPM is the spindle speed in revolutions per minute.
	RPM float64

	// MaxRotational is the worst rotational delay θ (one full revolution).
	MaxRotational si.Seconds

	// MaxSeek is the worst seek time (a full sweep across every cylinder).
	MaxSeek si.Seconds

	// Mu1, Nu1, Mu2, Nu2 parameterize the seek curve γ of Eq. 7:
	//
	//	γ(x) = Mu1 + Nu1·√x   for 0 < x < SeekBreak
	//	γ(x) = Mu2 + Nu2·x    for x ≥ SeekBreak
	//
	// Mu1 is the arm's fixed overhead (speedup, slowdown, settle);
	// Mu1+Nu1 is the single-cylinder seek time.
	Mu1, Nu1, Mu2, Nu2 si.Seconds

	// SeekBreak is the cylinder distance at which γ switches from the
	// square-root regime to the linear regime (400 in the paper).
	SeekBreak int

	// Cylinders is the total cylinder count Cyln. The paper leaves it
	// implicit; Barracuda9LP derives it from γ(Cyln) = MaxSeek.
	Cylinders int
}

// Barracuda9LP returns the Seagate Barracuda 9LP parameter set of Table 3.
//
// The cylinder count is derived from the linear seek regime:
// γ(Cyln) = 5 ms + 0.0014 ms·Cyln = 13.4 ms (the quoted maximum read seek)
// gives Cyln = 6000. With that geometry the derived maximum number of
// concurrent requests for 1.5 Mbps streams is N = 79, matching Table 3.
func Barracuda9LP() Spec {
	return Spec{
		Name:          "Seagate Barracuda 9LP",
		Capacity:      si.Gigabytes(9.19),
		TransferRate:  si.Mbps(120),
		RPM:           7200,
		MaxRotational: 8.33 * si.Millisecond,
		MaxSeek:       13.4 * si.Millisecond,
		Mu1:           0.54 * si.Millisecond,
		Nu1:           0.26 * si.Millisecond,
		Mu2:           5 * si.Millisecond,
		Nu2:           0.0014 * si.Millisecond,
		SeekBreak:     400,
		Cylinders:     6000,
	}
}

// Validate reports whether the spec is internally consistent enough to
// drive the model: positive rates, geometry, and a seek curve defined on
// the whole cylinder range.
func (s Spec) Validate() error {
	switch {
	case s.TransferRate <= 0:
		return fmt.Errorf("diskmodel: %s: non-positive transfer rate %v", s.Name, s.TransferRate)
	case s.Capacity <= 0:
		return fmt.Errorf("diskmodel: %s: non-positive capacity %v", s.Name, s.Capacity)
	case s.Cylinders <= 0:
		return fmt.Errorf("diskmodel: %s: non-positive cylinder count %d", s.Name, s.Cylinders)
	case s.SeekBreak <= 0 || s.SeekBreak > s.Cylinders:
		return fmt.Errorf("diskmodel: %s: seek break %d outside (0, %d]", s.Name, s.SeekBreak, s.Cylinders)
	case s.MaxRotational <= 0:
		return fmt.Errorf("diskmodel: %s: non-positive rotational delay %v", s.Name, s.MaxRotational)
	case s.Mu1 < 0 || s.Nu1 < 0 || s.Mu2 < 0 || s.Nu2 < 0:
		return fmt.Errorf("diskmodel: %s: negative seek coefficient", s.Name)
	}
	return nil
}

// SeekTime evaluates the seek curve γ for a head movement of x cylinders.
// γ(0) is 0: servicing the same cylinder needs no arm movement.
// x outside [0, Cylinders] is clamped; callers derive x from geometry, so a
// clamp only papers over float jitter at the edges.
//
// Below the published break the curve is the lower envelope of the two
// branches: published coefficient sets (the Barracuda's included) place the
// break above the distance where the branches cross, and evaluating the
// square-root branch all the way to the break would make γ jump downward
// there — violating the monotonicity and concavity the Sweep worst-case
// analysis relies on. A real arm follows whichever regime is faster.
func (s *Spec) SeekTime(x int) si.Seconds {
	if x <= 0 {
		return 0
	}
	if x > s.Cylinders {
		x = s.Cylinders
	}
	lin := s.Mu2 + s.Nu2*si.Seconds(x)
	if x >= s.SeekBreak {
		return lin
	}
	if sq := s.Mu1 + s.Nu1*si.Seconds(math.Sqrt(float64(x))); sq < lin {
		return sq
	}
	return lin
}

// WorstSeek is γ(Cylinders): the time for the arm to cross the whole disk.
func (s Spec) WorstSeek() si.Seconds { return s.SeekTime(s.Cylinders) }

// WorstLatency is the worst single-service disk latency γ(Cyln) + θ used
// by the Round-Robin analysis.
func (s Spec) WorstLatency() si.Seconds { return s.WorstSeek() + s.MaxRotational }

// MaxConcurrent derives N, the maximum number of concurrent requests the
// disk supports for streams consuming at cr: the largest integer strictly
// below TR/CR (Eq. 1). It panics on a non-positive consumption rate.
func (s Spec) MaxConcurrent(cr si.BitRate) int {
	if cr <= 0 {
		panic("diskmodel: MaxConcurrent with non-positive consumption rate")
	}
	ratio := float64(s.TransferRate) / float64(cr)
	n := int(math.Ceil(ratio)) - 1 // largest integer strictly below ratio
	if n < 0 {
		n = 0
	}
	return n
}

// BitsPerCylinder reports how much data one cylinder holds under the
// model's uniform-density assumption. Real zoned drives vary by track; the
// uniform value is what the paper's contiguous-layout reasoning needs.
func (s *Spec) BitsPerCylinder() si.Bits {
	return s.Capacity / si.Bits(s.Cylinders)
}

// CylinderOf maps a byte offset (expressed in bits) from the start of the
// disk to its cylinder number, clamped to the disk.
func (s *Spec) CylinderOf(offset si.Bits) int {
	if offset < 0 {
		return 0
	}
	c := int(float64(offset) / float64(s.BitsPerCylinder()))
	if c >= s.Cylinders {
		c = s.Cylinders - 1
	}
	return c
}

// ModernNearline returns a present-day nearline drive for the large-N
// scale scenario: a 2.4 Gbps sustained transfer rate — twenty times the
// Barracuda's — so one spindle supports N = ceil(2400/1.5) − 1 = 1599
// concurrent 1.5 Mbps streams (Eq. 1), three orders of magnitude beyond
// the paper's N = 79. Mechanics improved far less than bandwidth over
// the same generations: the spindle still turns at 7200 RPM (8.33 ms
// worst rotational delay) and the arm's full sweep costs 8.5 ms, which
// is exactly the regime where buffer sizing matters — per-service
// latency is mechanical, so large n means large rounds and large
// buffers. The seek curve keeps Eq. 7's shape with the linear segment
// meeting gamma(Cyln) = 2.5 ms + 0.0003 ms · 20000 = 8.5 ms.
func ModernNearline() Spec {
	return Spec{
		Name:          "Modern Nearline 2.4G",
		Capacity:      si.Gigabytes(4000),
		TransferRate:  si.Mbps(2400),
		RPM:           7200,
		MaxRotational: 8.33 * si.Millisecond,
		MaxSeek:       8.5 * si.Millisecond,
		Mu1:           0.3 * si.Millisecond,
		Nu1:           0.12 * si.Millisecond,
		Mu2:           2.5 * si.Millisecond,
		Nu2:           0.0003 * si.Millisecond,
		SeekBreak:     400,
		Cylinders:     20000,
	}
}

// Synthetic15K returns a faster, later-generation drive (in the spirit of
// the 15k-RPM SCSI disks that followed the Barracuda): four times the
// Barracuda's transfer rate, half its rotational delay, and a quicker arm.
// It exists to show the paper's machinery is parametric in the disk — the
// dynamic scheme's advantage is a property of the sizing model, not of
// one drive. The seek curve keeps Eq. 7's shape with the linear segment
// meeting gamma(Cyln) = 7.5 ms.
func Synthetic15K() Spec {
	return Spec{
		Name:          "Synthetic 15K",
		Capacity:      si.Gigabytes(36),
		TransferRate:  si.Mbps(480),
		RPM:           15000,
		MaxRotational: 4 * si.Millisecond,
		MaxSeek:       7.5 * si.Millisecond,
		Mu1:           0.4 * si.Millisecond,
		Nu1:           0.145 * si.Millisecond,
		Mu2:           3 * si.Millisecond,
		Nu2:           0.00075 * si.Millisecond,
		SeekBreak:     400,
		Cylinders:     6000,
	}
}
