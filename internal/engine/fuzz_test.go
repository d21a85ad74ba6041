package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/diskmodel"
	"repro/internal/sched"
	"repro/internal/si"
	"repro/internal/workload"
)

// admitAuditor checks, synchronously at every rejection, that the engine
// only turns an arrival away when no rung of its title's ladder fits —
// i.e. a rejection under downgrading admission really means the disk was
// saturated for every rate the sizing tables could back — or, with
// RejectRate, when the requested rate has no sizing context at all.
type admitAuditor struct {
	NopObserver
	t     *testing.T
	sys   *System
	lib   *catalog.Library
	bwCap si.BitRate
}

func (a *admitAuditor) OnReject(disk int, req workload.Request, reason RejectReason, now si.Seconds) {
	want := req.Rate
	if want <= 0 {
		want = a.sys.cfg.CR
	}
	if reason == RejectRate {
		if a.sys.ctxFor(want) != nil {
			a.t.Errorf("request %d rejected for its rate %v, which the system sizes", req.ID, want)
		}
		return
	}
	if a.sys.ctxFor(want) == nil {
		a.t.Errorf("request %d at unsized rate %v rejected with reason %d, want RejectRate", req.ID, want, reason)
	}
	if reason != RejectCapacity {
		return
	}
	d := a.sys.Disk(disk)
	if d.Committed() >= a.sys.AdmitCap() {
		return // the count capacity alone justifies the rejection
	}
	for _, rung := range a.lib.Video(req.Video).Rungs() {
		if rung > want {
			continue // downgrading never steps a viewer up
		}
		if a.sys.ctxFor(rung) == nil {
			continue // no sizing tables for this rung
		}
		if !a.sys.cfg.Downgrade && rung != want {
			continue // reject-only: exactly the requested rung counts
		}
		if d.CommittedRate()+rung < a.bwCap {
			a.t.Errorf("rejected request %d (rate %v) at t=%v, but rung %v fits: %d/%d committed, %v+%v < %v",
				req.ID, req.Rate, now, rung, d.Committed(), a.sys.AdmitCap(), d.CommittedRate(), rung, a.bwCap)
		}
	}
}

// FuzzLadderAdmit model-checks multi-rate admission under arbitrary
// ladder shapes, admission policies, and arrival sequences: whatever
// rungs the fuzzer invents, the engine never admits a committed set its
// sizing tables cannot back — the committed count stays within
// AdmitCap, the committed consumption bandwidth stays strictly below
// the bandwidth cap (knee-halved when the knee scheme is on), a
// rejection only happens when no ladder rung fits, Disk.invariants holds
// after every event, the pool's high-water mark equals the maximum of
// Usage shadowed at every fill, and once every viewer departs the
// committed bandwidth returns exactly to zero.
func FuzzLadderAdmit(f *testing.F) {
	f.Add(uint8(2), false, false, []byte{10, 40, 81, 80, 202, 120})
	f.Add(uint8(3), true, true, []byte{5, 200, 99, 10, 3, 255, 77, 31, 150, 64})
	f.Add(uint8(1), false, true, []byte{255, 255, 0, 0, 128, 17})
	f.Add(uint8(4), true, false, []byte{})
	// One rung: the uniform regime, on the same path as every ladder.
	f.Add(uint8(0), false, false, []byte{3, 200, 1, 90, 2, 255, 0, 40, 5, 10, 1, 77})
	// Arrivals stamped with a rate off the ladder (b1%16 == 14).
	f.Add(uint8(2), false, true, []byte{60, 2, 14, 100, 50, 3, 30, 80, 9, 46, 46, 120})
	f.Fuzz(func(t *testing.T, rungsRaw uint8, knee, downgrade bool, data []byte) {
		spec := diskmodel.Barracuda9LP()
		// Ladder shape from the fuzz input: 1-4 strictly descending rungs
		// topped by the MPEG-1 rate, the lower rungs picked by the leading
		// data bytes (floored at 0.4 Mbps to keep the derived N — and so
		// the sizing-table builds — bounded).
		nRungs := int(rungsRaw)%4 + 1
		ladder := []si.BitRate{si.Mbps(1.5)}
		for i := 1; i < nRungs && len(data) > 0; i++ {
			b := data[0]
			data = data[1:]
			r := si.Mbps(0.4 + 0.05*float64(b%22))
			dup := false
			for _, e := range ladder {
				dup = dup || e == r
			}
			if !dup && r < ladder[0] {
				ladder = append(ladder, r)
			}
		}
		for i := 1; i < len(ladder); i++ { // insertion sort, descending
			for j := i; j > 0 && ladder[j] > ladder[j-1]; j-- {
				ladder[j], ladder[j-1] = ladder[j-1], ladder[j]
			}
		}

		const titles = 4
		lib, err := catalog.New(catalog.Config{
			Titles: titles, Disks: 1, Spec: spec, PopularityTheta: 0.271,
			Video: func(id int) catalog.Video {
				v := catalog.MPEG1Video(id)
				v.Ladder = ladder
				return v
			},
		})
		if err != nil {
			t.Skip("ladder rejected by the catalog")
		}
		var alloc Allocator = DynamicAllocator{}
		bwCap := spec.TransferRate
		if knee {
			alloc = KneeAllocator{}
			bwCap = KneeAllocator{}.AdmitCapBandwidth(spec.TransferRate)
		}
		vc := &auditClock{VirtualClock: NewVirtualClock()}
		sys, err := New(Config{
			Clock:     vc,
			Allocator: alloc,
			Method:    sched.NewMethod(sched.RoundRobin),
			Spec:      spec,
			CR:        ladder[0],
			Rates:     ladder,
			Downgrade: downgrade,
			Alpha:     1,
			TLog:      si.Minutes(40),
			Library:   lib,
		})
		if err != nil {
			t.Skip("ladder rejected by the engine")
		}
		sys.AttachObserver(&admitAuditor{t: t, sys: sys, lib: lib, bwCap: bwCap})
		auditInvariants(t, vc, sys)
		shadow := &highWaterShadow{sys: sys}
		sys.AttachObserver(shadow)
		d := sys.Disk(0)

		var now si.Seconds
		for i := 0; i+1 < len(data); i += 2 {
			b1, b2 := data[i], data[i+1]
			now += si.Seconds(b1 % 7)
			vc.Run(now)
			req := workload.Request{
				ID:      i / 2,
				Arrival: now,
				Video:   int(b1) % titles,
				Disk:    0,
				Viewing: si.Seconds(10 + int(b2)),
			}
			switch b1 % 16 {
			case 15: // leave some requests on the Rate==0 (= CR) path
			case 14: // and stamp some with a rate no rung or context has
				req.Rate = si.Mbps(0.333)
			default:
				req.Rate = ladder[int(b1/4)%len(ladder)]
			}
			sys.OnArrival(req)
			vc.audit()
			if c := d.Committed(); c > sys.AdmitCap() {
				t.Fatalf("after arrival %d: %d committed, cap %d", req.ID, c, sys.AdmitCap())
			}
			if r := d.CommittedRate(); r >= bwCap {
				t.Fatalf("after arrival %d: committed bandwidth %v at or above the cap %v", req.ID, r, bwCap)
			}
		}

		// Every viewing time is under 266s; an hour drains the disk, the
		// deferral queue included. The books must balance back to zero.
		vc.Run(now + si.Seconds(3600))
		if d.InService() != 0 || d.QueueLen() != 0 {
			t.Fatalf("disk not drained: %d in service, %d queued", d.InService(), d.QueueLen())
		}
		if r := d.CommittedRate(); r != 0 {
			t.Fatalf("all viewers departed but %v committed bandwidth remains booked", r)
		}
		if shadow.high > 0 { // an input with no arrival fills nothing
			shadow.agree(t)
		}
	})
}
