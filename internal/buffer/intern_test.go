package buffer

import (
	"testing"

	"repro/internal/si"
)

// A warmed-up pool reuses its per-stream bookkeeping slots: an
// attach/fill/detach cycle over ids the pool has seen the likes of
// before must not allocate. (The map bucket for a fresh id can, so the
// cycle reuses a fixed id set.)
func TestPoolAttachDetachAllocFree(t *testing.T) {
	p := NewPool(0)
	const ids = 32
	rate := si.BitRate(1.5 * si.Mega)
	now := si.Seconds(0)
	warm := func() {
		for id := 0; id < ids; id++ {
			p.Attach(id, rate, now)
			p.BeginFill(id, 1e6, now)
			p.CompleteFill(id, now)
			now += 1
		}
		for id := 0; id < ids; id++ {
			p.Detach(id, now)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(200, warm)
	if allocs != 0 {
		t.Errorf("warm attach/fill/detach cycle allocates %v objects/op, want 0", allocs)
	}
}

// Detached records' slots stay in the dense slice's backing array and
// are handed back out, zeroed, to later attaches — capacity is bounded by
// the concurrent high-water stream count.
func TestPoolInternsStateRecords(t *testing.T) {
	p := NewPool(0)
	rate := si.BitRate(si.Mega)
	for id := 0; id < 10; id++ {
		p.Attach(id, rate, 0)
		p.BeginFill(id, 1e6, 0)
		p.CompleteFill(id, 0)
	}
	for id := 0; id < 10; id++ {
		p.Detach(id, 1)
	}
	capacity := cap(p.order)
	if len(p.order) != 0 || capacity < 10 {
		t.Fatalf("after 10 detaches the slice holds %d records in %d slots, want 0 in at least 10", len(p.order), capacity)
	}
	p.Attach(99, rate, 2)
	p.BeginFill(99, 1e6, 2)
	for id := 100; id < 109; id++ {
		p.Attach(id, rate, 2)
	}
	if cap(p.order) != capacity {
		t.Errorf("re-attaching up to the old high-water mark moved capacity %d -> %d", capacity, cap(p.order))
	}
	if st := p.must(100); st.level != 0 || st.started || st.starving || st.pending || st.reserved != 0 {
		t.Errorf("reused slot not reset: %+v", st)
	}
	if st := p.must(99); !st.pending || st.reserved != 1e6 {
		t.Errorf("growing the slice lost stream 99's in-flight fill: %+v", st)
	}
}
