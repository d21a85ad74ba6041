package engine

import (
	"math"
	"testing"

	"repro/internal/si"
)

// switchRecorder captures OnRateSwitch callbacks.
type switchRecorder struct {
	NopObserver
	events []struct {
		id       int
		from, to si.BitRate
		at       si.Seconds
	}
}

func (r *switchRecorder) OnRateSwitch(disk int, st *Stream, from, to si.BitRate, now si.Seconds) {
	r.events = append(r.events, struct {
		id       int
		from, to si.BitRate
		at       si.Seconds
	}{st.ID(), from, to, now})
}

// adaptDisk is a loaded three-rung disk (see loadedDisk) with adaptation
// enabled and an observer.
func adaptDisk(t *testing.T, obs Observer) *Disk {
	t.Helper()
	return loadedDisk(t, ladders["ladder"], func(c *Config) { c.Adapt, c.Observer = &AdaptConfig{}, obs })
}

// startedAt returns a started in-service stream currently at the given
// rate.
func startedAt(t *testing.T, d *Disk, rate si.BitRate) *Stream {
	t.Helper()
	for _, st := range d.streams {
		if st.started && st.rate == rate {
			return st
		}
	}
	t.Fatalf("no started stream at %v", rate)
	return nil
}

func TestAdaptConfigDefaultsAndValidation(t *testing.T) {
	a, err := AdaptConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if a.Reservoir != 0.25 || a.Headroom != 0.95 || a.Sustain != 8 {
		t.Fatalf("defaults = %+v, want {0.25 0.95 8}", a)
	}
	for _, bad := range []AdaptConfig{
		{Reservoir: -1},
		{Headroom: 1.5},
		{Headroom: -0.1},
		{Sustain: -3},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	// Explicit in-range values survive untouched.
	a, err = AdaptConfig{Reservoir: 0.5, Headroom: 1, Sustain: 2}.withDefaults()
	if err != nil || a.Reservoir != 0.5 || a.Headroom != 1 || a.Sustain != 2 {
		t.Fatalf("explicit config mangled: %+v, %v", a, err)
	}
}

func TestRungWalks(t *testing.T) {
	d := adaptDisk(t, nil)
	top := startedAt(t, d, si.Mbps(1.5))
	if c := d.rungAbove(top); c != nil {
		t.Fatalf("rungAbove at the requested top rung = %v, want nil", c.rate)
	}
	if c := d.rungBelow(top); c == nil || c.rate != si.Mbps(1.0) {
		t.Fatalf("rungBelow(1.5) = %v, want 1.0 Mbps", c)
	}
	mid := startedAt(t, d, si.Mbps(1.0))
	// The viewer asked for 1.0: the walk up is capped at the request.
	if c := d.rungAbove(mid); c != nil {
		t.Fatalf("rungAbove above the requested rung = %v, want nil", c.rate)
	}
	bottom := startedAt(t, d, si.Mbps(0.5))
	if c := d.rungBelow(bottom); c != nil {
		t.Fatalf("rungBelow at the ladder floor = %v, want nil", c.rate)
	}
	// After a down-switch the walk back up targets the next rung toward
	// the original request.
	now := si.Seconds(121)
	d.switchRate(top, d.sys.ctxFor(si.Mbps(0.5)), now)
	if c := d.rungAbove(top); c == nil || c.rate != si.Mbps(1.0) {
		t.Fatalf("rungAbove after a deep down-switch = %v, want the next rung 1.0 Mbps", c)
	}
}

func TestSwitchRateBookkeeping(t *testing.T) {
	rec := &switchRecorder{}
	d := adaptDisk(t, rec)
	st := startedAt(t, d, si.Mbps(1.5))
	sr0, cr0 := d.serviceRate, d.committedRate
	liveTop := d.rateLive[st.ctx.idx]
	down := d.sys.ctxFor(si.Mbps(1.0))
	now := si.Seconds(121)

	d.switchRate(st, down, now)
	if d.serviceRate != sr0-si.Mbps(0.5) {
		t.Fatalf("serviceRate = %v, want %v", d.serviceRate, sr0-si.Mbps(0.5))
	}
	if d.committedRate != cr0 {
		t.Fatalf("committedRate shrank on a down-switch: %v, want %v", d.committedRate, cr0)
	}
	if st.booked != si.Mbps(1.5) {
		t.Fatalf("booked = %v, want the standing 1.5 Mbps booking", st.booked)
	}
	if st.rate != si.Mbps(1.0) || st.ctx != down {
		t.Fatalf("stream not re-rated: rate=%v", st.rate)
	}
	if d.rateLive[st.ctx.idx] == 0 || d.rateLive[d.sys.ctxFor(si.Mbps(1.5)).idx] != liveTop-1 {
		t.Fatal("rateLive counters not rebooked")
	}
	if st.rateSince != now {
		t.Fatalf("rateSince = %v, want %v", st.rateSince, now)
	}
	if st.deadline != d.pool.EmptyAt(st.id) {
		t.Fatalf("deadline %v out of sync with the pool's %v", st.deadline, d.pool.EmptyAt(st.id))
	}
	// Climbing back within the booking restores serviceRate and still
	// charges the committed book nothing.
	d.switchRate(st, d.sys.ctxFor(si.Mbps(1.5)), now+1)
	if d.serviceRate != sr0 || d.committedRate != cr0 {
		t.Fatalf("recovery within the booking moved the books: service %v→%v committed %v→%v",
			sr0, d.serviceRate, cr0, d.committedRate)
	}
	// An expansion above the booking charges exactly the increment.
	ex := startedAt(t, d, si.Mbps(0.5))
	d.switchRate(ex, d.sys.ctxFor(si.Mbps(1.0)), now+2)
	if d.committedRate != cr0+si.Mbps(0.5) {
		t.Fatalf("expansion charged %v, want +0.5 Mbps over %v", d.committedRate-cr0, cr0)
	}
	if ex.booked != si.Mbps(1.0) {
		t.Fatalf("expansion booked = %v, want 1.0 Mbps", ex.booked)
	}

	want := []struct {
		from, to si.BitRate
	}{
		{si.Mbps(1.5), si.Mbps(1.0)},
		{si.Mbps(1.0), si.Mbps(1.5)},
		{si.Mbps(0.5), si.Mbps(1.0)},
	}
	if len(rec.events) != len(want) {
		t.Fatalf("observer saw %d switches, want %d", len(rec.events), len(want))
	}
	for i, w := range want {
		if rec.events[i].from != w.from || rec.events[i].to != w.to {
			t.Fatalf("switch %d: %v→%v, want %v→%v", i,
				rec.events[i].from, rec.events[i].to, w.from, w.to)
		}
	}
}

// TestSwitchRateReplansDemand pins the demand re-plan: consumed bits stay
// consumed, and the rest of the viewing is priced at the new rung.
func TestSwitchRateReplansDemand(t *testing.T) {
	d := adaptDisk(t, nil)
	st := startedAt(t, d, si.Mbps(1.5))
	now := si.Seconds(121)
	consumed := st.delivered - d.pool.Level(st.id, now)
	remaining := st.firstFill + st.req.Viewing - now
	to := d.sys.ctxFor(si.Mbps(0.5))
	d.switchRate(st, to, now)
	want := float64(consumed) + float64(si.Mbps(0.5).DataIn(remaining))
	if math.Abs(float64(st.required)-want) > 1 {
		t.Fatalf("required = %v after the switch, want consumed %v + remaining at 0.5 Mbps", st.required, want)
	}
}
