package buffer

import (
	"math/rand"
	"testing"

	"repro/internal/si"
)

// mark shadows the high-water mark from outside the way the pool kept it
// before BeginFill learned to skip walks: one exact Usage sample after
// every successful BeginFill and every Pin.
type mark struct {
	high   si.Bits
	highAt si.Seconds
}

func (m *mark) sample(p *Pool, now si.Seconds) {
	if u := p.Usage(now); u > m.high {
		m.high, m.highAt = u, now
	}
}

func (m *mark) agree(t *testing.T, p *Pool, where string) {
	t.Helper()
	if st := p.Stats(); st.HighWater != m.high || st.HighWaterAt != m.highAt {
		t.Fatalf("%s: high water %v at %v, exact shadow %v at %v", where, st.HighWater, st.HighWaterAt, m.high, m.highAt)
	}
}

// TestHighWaterSkipsAreExact replays random traces — attach, fill, land,
// detach, SetRate, Pin, SetUnderrunTolerance, idle gaps that leave every
// buffer dry long past the anchor's credit, fills left in flight while
// their streams starve, fractional sizes, clocks starting near 1e5 s where
// an ulp of time is worth bits — on exact, paged and budgeted pools, and
// requires the mark and its instant to equal the exact shadow after every
// operation. The walk BeginFill does make must return Usage's very sum.
// An exact unbudgeted pool must have taken both paths (a skipped fill
// leaves anchorAt in the past; time only moves forward here); paged and
// budgeted pools must never hold an anchor.
func TestHighWaterSkipsAreExact(t *testing.T) {
	rates := []si.BitRate{si.Mbps(0.5), si.Mbps(1.0), si.Mbps(1.5)}
	kinds := []struct {
		name         string
		budget, page si.Bits
	}{
		{"exact", 0, 0},
		{"paged", 0, 8 * 4096},
		{"budgeted", 40_000_000, 0},
		{"paged and budgeted", 40_000_000, 8 * 4096},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			var skips, walks, refused, dry int
			for seed := int64(1); seed <= 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := NewPagedPool(kind.budget, kind.page)
				p.SetUnderrunFunc(func(int, si.Seconds, si.Seconds) { dry++ })
				var m mark
				var attached, inflight []int
				take := func(ids *[]int) int {
					i := rng.Intn(len(*ids))
					id := (*ids)[i]
					*ids = append((*ids)[:i], (*ids)[i+1:]...)
					return id
				}
				now, nextID := si.Seconds(seed%3)*45_000, 0
				for op := 0; op < 4000; op++ {
					now += si.Seconds(0.0005 + rng.Float64()*0.05)
					if rng.Intn(400) == 0 {
						now += si.Seconds(30 + rng.Intn(300)) // everything runs dry
					}
					switch k := rng.Intn(20); {
					case k < 3 && len(attached)+len(inflight) < 60:
						p.Attach(nextID, rates[rng.Intn(len(rates))], now)
						attached = append(attached, nextID)
						nextID++
					case k < 11 && len(attached) > 0:
						id := take(&attached)
						size := si.Bits(rng.Float64() * 3_000_000)
						if rng.Intn(4) == 0 {
							size = si.Bits(rng.Intn(2000)) // top-ups, zero included
						}
						if !p.BeginFill(id, size, now) {
							refused++
							attached = append(attached, id)
							break
						}
						m.sample(p, now)
						if p.anchorLeft > 0 && p.anchorAt == now {
							walks++
							if p.anchorU != p.Usage(now) {
								t.Fatalf("seed %d op %d: the anchoring walk summed %v, Usage %v", seed, op, p.anchorU, p.Usage(now))
							}
						} else if p.anchorLeft > 0 {
							skips++
						}
						inflight = append(inflight, id)
					case k < 16 && len(inflight) > 0:
						id := take(&inflight)
						p.CompleteFill(id, now)
						attached = append(attached, id)
					case k == 16 && len(attached) > 0:
						p.Detach(take(&attached), now)
					case k == 17 && len(attached) > 0:
						p.SetRate(attached[rng.Intn(len(attached))], rates[rng.Intn(len(rates))], now)
					case k == 18 && rng.Intn(10) == 0:
						p.Pin(si.Bits(rng.Intn(200_000)), now)
						m.sample(p, now)
					case k == 19:
						p.SetUnderrunTolerance(si.Seconds(rng.Intn(3)) * 0.01)
					}
					m.agree(t, p, kind.name)
					if (kind.budget > 0 || kind.page > 0) && p.anchorLeft != 0 {
						t.Fatalf("seed %d op %d: a %s pool holds an anchor", seed, op, kind.name)
					}
				}
			}
			if dry == 0 {
				t.Error("no stream ever ran dry: the trace never outlived an anchor's credit")
			}
			if exact := kind.budget == 0 && kind.page == 0; exact && (skips == 0 || walks == 0) {
				t.Errorf("exact pool: %d skipped walks, %d walks — both paths must be taken", skips, walks)
			} else if !exact && skips != 0 {
				t.Errorf("%d walks skipped on a pool that must always walk", skips)
			}
			if kind.budget > 0 && refused == 0 {
				t.Error("the budget never refused a fill")
			}
		})
	}
}

// The drain credit must stop where the first credited buffer runs dry.
// Two streams play from the anchor on, one from a 100 s buffer and one
// from a 1 s buffer; 40 s later a 50 s fill sets a true record. Crediting
// both rates for the whole 40 s would put the bound 39 s of data under
// the truth and wave the record through.
func TestAnchorCreditStopsAtFirstDryBuffer(t *testing.T) {
	p := NewPool(0)
	var m mark
	fill := func(id int, secs, now si.Seconds) {
		p.BeginFill(id, cr.DataIn(secs), now)
		m.sample(p, now)
		p.CompleteFill(id, now)
	}
	for id := 0; id < 3; id++ {
		p.Attach(id, cr, 0)
	}
	fill(0, 100, 0)
	fill(1, 1, 0)
	fill(2, 0.5, 0) // the walk that anchors with streams 0 and 1 playing
	if p.anchorRate != 2*cr || p.anchorDry != 1 {
		t.Fatalf("anchor credits %v until %v, want %v until 1s", p.anchorRate, p.anchorDry, 2*cr)
	}
	m.agree(t, p, "after the build-up")
	fill(1, 50, 40)
	if want := cr.DataIn(60 + 50); p.Stats().HighWater != want || p.Stats().HighWaterAt != 40 {
		t.Errorf("high water %v at %v, want the record %v at 40s", p.Stats().HighWater, p.Stats().HighWaterAt, want)
	}
	m.agree(t, p, "after the late record")
}

// A pool running well under its mark must stop walking: after a peak of
// 200 streams drains down to 20, refills a tenth the size of what was
// shed leave the anchor where it was, fill after fill, and the mark —
// which nothing approaches — stays exact. Streams that were not playing
// at the anchor (their refills land later) earn no credit, so the bound
// creeps up by each reserved fill and eventually forces a fresh walk; the
// run must see that too.
func TestPoolUnderItsMarkStopsWalking(t *testing.T) {
	p := NewPool(0)
	var m mark
	now := si.Seconds(0)
	for id := 0; id < 200; id++ {
		p.Attach(id, cr, now)
		p.BeginFill(id, cr.DataIn(60), now)
		m.sample(p, now)
		p.CompleteFill(id, now)
	}
	now = 30
	for id := 20; id < 200; id++ {
		p.Detach(id, now)
	}
	var skipped, walked int
	for round := 0; round < 40; round++ {
		for id := 0; id < 20; id++ {
			now += 0.1
			at := p.anchorAt
			p.BeginFill(id, cr.DataIn(2), now)
			m.sample(p, now)
			if p.anchorAt == at {
				skipped++
			} else {
				walked++
			}
			p.CompleteFill(id, now+0.05)
		}
	}
	m.agree(t, p, "steady refills under the mark")
	if p.Stats().HighWaterAt != 0 {
		t.Errorf("the mark moved to %v; nothing should have approached the 200-stream peak", p.Stats().HighWaterAt)
	}
	if walked == 0 || skipped < 20*walked {
		t.Errorf("%d fills walked, %d skipped: far under the mark nearly every fill must skip, and a spent bound must re-anchor", walked, skipped)
	}
}

// SetRate and Pin falsify what the anchor's bound rests on — a credited
// stream drains at the rate it had, memory grows by reserved fills only —
// so each must drop it. Both traces end in a true record that the stale
// bound would have put under the mark.
func TestSetRateAndPinDropTheAnchor(t *testing.T) {
	build := func() (*Pool, *mark) {
		p, m := NewPool(0), &mark{}
		p.Attach(0, cr, 0)
		p.Attach(1, cr, 0)
		for id, secs := range []si.Seconds{100, 1} {
			p.BeginFill(id, cr.DataIn(secs), 0)
			m.sample(p, 0)
			p.CompleteFill(id, 0)
		}
		if p.anchorLeft == 0 || p.anchorRate != cr {
			t.Fatalf("build-up left no anchor crediting stream 0 (rate %v, %d skips left)", p.anchorRate, p.anchorLeft)
		}
		return p, m
	}
	t.Run("SetRate", func(t *testing.T) {
		p, m := build()
		p.SetRate(0, cr/3, 0) // 30 s now drain 10 s of the old rate's data
		p.BeginFill(1, cr.DataIn(15), 30)
		m.sample(p, 30)
		m.agree(t, p, "after the down-switch")
		if p.Stats().HighWaterAt != 30 {
			t.Error("the trace set no record at 30s: it proves nothing")
		}
	})
	t.Run("Pin", func(t *testing.T) {
		p, m := build()
		p.Pin(cr.DataIn(50), 10)
		m.sample(p, 10)
		p.BeginFill(1, cr.DataIn(5), 11)
		m.sample(p, 11)
		m.agree(t, p, "after the pin")
		if p.Stats().HighWaterAt != 11 {
			t.Error("the trace set no record at 11s: it proves nothing")
		}
	})
}
