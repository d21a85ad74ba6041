package buffer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/si"
)

// pair drives a pool and a map-only reference — the same code with the
// remembered position wiped before every call — through one trace, and
// compares every attached stream's observable state after each step.
type pair struct {
	t        *testing.T
	got, ref *Pool
	ids      []int
	now      si.Seconds
}

func newPair(t *testing.T) *pair {
	return &pair{t: t, got: NewPool(0), ref: NewPool(0)}
}

func (p *pair) do(op func(*Pool)) {
	p.t.Helper()
	op(p.got)
	p.ref.lastPos = -1
	op(p.ref)
	p.now++
	for _, id := range p.ids {
		p.ref.lastPos = -1
		if g, w := p.got.Level(id, p.now), p.ref.Level(id, p.now); g != w {
			p.t.Fatalf("stream %d: Level = %v, map-only reference says %v", id, g, w)
		}
		p.ref.lastPos = -1
		if g, w := p.got.EmptyAt(id), p.ref.EmptyAt(id); g != w {
			p.t.Fatalf("stream %d: EmptyAt = %v, map-only reference says %v", id, g, w)
		}
	}
	if g, w := p.got.Usage(p.now), p.ref.Usage(p.now); g != w {
		p.t.Fatalf("Usage = %v, map-only reference says %v", g, w)
	}
}

func (p *pair) attach(id int) {
	p.t.Helper()
	p.ids = append(p.ids, id)
	p.do(func(q *Pool) { q.Attach(id, cr, p.now) })
}

func (p *pair) detach(id int) {
	p.t.Helper()
	for i, o := range p.ids {
		if o == id {
			p.ids = append(p.ids[:i], p.ids[i+1:]...)
		}
	}
	p.do(func(q *Pool) { q.Detach(id, p.now) })
}

// fill runs the engine's two fill phases on one stream: the lookups after
// the first all ride the remembered position.
func (p *pair) fill(id int, size si.Bits) {
	p.t.Helper()
	p.do(func(q *Pool) {
		q.Level(id, p.now)
		if !q.BeginFill(id, size, p.now) {
			p.t.Fatalf("stream %d: BeginFill refused on an unlimited pool", id)
		}
		q.EmptyAt(id)
	})
	p.do(func(q *Pool) {
		q.CompleteFill(id, p.now)
		q.EmptyAt(id)
	})
}

// The remembered id -> position must not survive anything that changes
// the mapping.
func TestRememberedPositionDroppedOnAttachAndDetach(t *testing.T) {
	t.Run("detach the remembered stream, re-attach its id", func(t *testing.T) {
		p := newPair(t)
		p.attach(1)
		p.attach(2)
		p.attach(3)
		p.fill(2, si.Megabits(4)) // remembers 2 at position 1
		p.detach(2)               // 3 swaps into position 1
		p.fill(3, si.Megabits(2))
		p.attach(2) // recycled id lands at the tail, not at position 1
		p.fill(2, si.Megabits(6))
		p.fill(3, si.Megabits(1))
	})
	t.Run("detach another stream that moves the remembered one", func(t *testing.T) {
		p := newPair(t)
		p.attach(1)
		p.attach(2)
		p.attach(3)
		p.fill(3, si.Megabits(4)) // remembers 3 at position 2
		p.detach(1)               // 3 swaps into position 0; position 2 is gone
		p.fill(3, si.Megabits(2))
		p.fill(2, si.Megabits(3))
	})
	t.Run("attach between two touches of one stream", func(t *testing.T) {
		p := newPair(t)
		p.attach(1)
		p.fill(1, si.Megabits(4))
		p.attach(2)
		p.fill(1, si.Megabits(1))
		p.fill(2, si.Megabits(1))
	})
	t.Run("random trace", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		p := newPair(t)
		for step, next := 0, 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 2 || len(p.ids) == 0:
				// Recycle a small id space so re-attached ids are common.
				id := next % 12
				next++
				attached := false
				for _, o := range p.ids {
					attached = attached || o == id
				}
				if !attached {
					p.attach(id)
				}
			case op < 4:
				p.detach(p.ids[rng.Intn(len(p.ids))])
			default:
				p.fill(p.ids[rng.Intn(len(p.ids))], si.Megabits(float64(1+rng.Intn(8))))
			}
		}
	})
}

// The validation panics fire through the remembered position exactly as
// through the map.
func TestRememberedPositionKeepsPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: recovered %v, want a panic mentioning %q", name, r, want)
			}
		}()
		f()
	}
	p := NewPool(0)
	p.Attach(1, cr, 0)
	p.Attach(2, cr, 0)
	p.Attach(3, cr, 0)
	p.Level(2, 0)  // remembers 2 at position 1
	p.Detach(2, 0) // 3 swaps into position 1: a stale hit would answer for 3
	mustPanic("Level on the detached remembered stream", "unknown stream 2", func() { p.Level(2, 0) })
	mustPanic("BeginFill on the detached remembered stream", "unknown stream 2", func() { p.BeginFill(2, 1, 0) })
	mustPanic("EmptyAt on a never-attached stream", "unknown stream 9", func() { p.EmptyAt(9) })
	p.Level(1, 0) // remembers 1
	p.BeginFill(1, 100, 0)
	mustPanic("double fill on the remembered stream", "already has a fill in flight", func() { p.BeginFill(1, 100, 0) })
	p.CompleteFill(1, 0)
	mustPanic("complete without begin on the remembered stream", "no fill in flight", func() { p.CompleteFill(1, 0) })
}
