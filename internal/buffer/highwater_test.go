package buffer

import (
	"math/rand"
	"testing"

	"repro/internal/si"
)

// shadow re-derives, through the pool's read-only probes, what the pool
// computed before it went to one high-water sample per fill and a dense
// state slice: a high-water mark sampled at BeginFill, CompleteFill and
// Pin alike, and a Usage summed over per-stream records in the
// pointer-slice order (attach order, swap-removal on detach).
type shadow struct {
	p      *Pool
	order  []int // stream ids, in the order the old []*state held them
	high   si.Bits
	highAt si.Seconds
}

func (s *shadow) attach(id int) { s.order = append(s.order, id) }

func (s *shadow) detach(id int) {
	for i, o := range s.order {
		if o == id {
			last := len(s.order) - 1
			s.order[i] = s.order[last]
			s.order = s.order[:last]
			return
		}
	}
}

func (s *shadow) usage(now si.Seconds) si.Bits {
	total := s.p.Pinned()
	for _, id := range s.order {
		total += s.p.footprint(s.p.must(id).reserved + s.p.Level(id, now))
	}
	return total
}

func (s *shadow) sample(now si.Seconds) {
	if u := s.usage(now); u > s.high {
		s.high, s.highAt = u, now
	}
}

// TestHighWaterOneSamplePerFill replays randomized attach / fill / detach
// / SetRate / Pin traces on exact and paged pools and checks after every
// operation that (a) Usage over the dense slice is bit-identical to the
// sum in the old pointer-slice order, across swap-removals, and (b) the
// high-water mark and its instant, now sampled at BeginFill and Pin only,
// equal what sampling at CompleteFill too would have recorded.
//
// (b) is exact, not approximate: a landing fill moves its reservation
// into the level at one instant (float addition commutes, so the
// stream's holding is the same number), and between samples holdings
// only drain. The trace keeps that argument free of rounding noise the
// way the engine's runs do — time advances by at least a millisecond
// between operations, so anything draining sheds hundreds of bits, and
// fills and pins are whole bits, so holdings that do not drain sum
// exactly in any order.
func TestHighWaterOneSamplePerFill(t *testing.T) {
	rates := []si.BitRate{si.Mbps(0.5), si.Mbps(1.0), si.Mbps(1.5)}
	for _, page := range []si.Bits{0, 8 * 4096} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := NewPagedPool(0, page)
			ref := &shadow{p: p}
			var attached, inflight []int
			take := func(ids *[]int) int {
				i := rng.Intn(len(*ids))
				id := (*ids)[i]
				*ids = append((*ids)[:i], (*ids)[i+1:]...)
				return id
			}
			now, nextID := si.Seconds(0), 0
			for op := 0; op < 3000; op++ {
				now += si.Seconds(0.001 + rng.Float64()*0.2)
				switch k := rng.Intn(10); {
				case k < 2 && len(attached)+len(inflight) < 60:
					p.Attach(nextID, rates[rng.Intn(len(rates))], now)
					ref.attach(nextID)
					attached = append(attached, nextID)
					nextID++
				case k < 6 && len(attached) > 0:
					id := take(&attached)
					p.BeginFill(id, si.Bits(1+rng.Intn(3_000_000)), now)
					ref.sample(now)
					if rng.Intn(3) == 0 { // lands at once, as unit tests drive it
						p.CompleteFill(id, now)
						ref.sample(now)
						attached = append(attached, id)
					} else {
						inflight = append(inflight, id)
					}
				case k < 8 && len(inflight) > 0:
					id := take(&inflight)
					p.CompleteFill(id, now)
					ref.sample(now)
					attached = append(attached, id)
				case k == 8 && len(attached) > 0:
					id := take(&attached) // an in-flight fill always lands first
					p.Detach(id, now)
					ref.detach(id)
				case len(attached) > 0 && rng.Intn(2) == 0:
					p.SetRate(attached[rng.Intn(len(attached))], rates[rng.Intn(len(rates))], now)
				case rng.Intn(20) == 0:
					p.Pin(si.Bits(rng.Intn(500_000)), now)
					ref.sample(now)
				}
				if got, want := p.Usage(now), ref.usage(now); got != want {
					t.Fatalf("page %v seed %d op %d: Usage %v, pointer-order sum %v", page, seed, op, got, want)
				}
				if st := p.Stats(); st.HighWater != ref.high || st.HighWaterAt != ref.highAt {
					t.Fatalf("page %v seed %d op %d: high water %v at %v, two-sample reference %v at %v",
						page, seed, op, st.HighWater, st.HighWaterAt, ref.high, ref.highAt)
				}
			}
			if ref.high == 0 || len(ref.order) == 0 {
				t.Fatalf("page %v seed %d: trace exercised nothing", page, seed)
			}
		}
	}
}

// A hard budget is checked against the usage the reservation would
// produce — the same walk that feeds the high-water sample — so a top-up
// that fits inside the stream's partly used page costs no second page,
// and a refused fill leaves nothing behind.
func TestPagedBudgetChargesPagesActuallyUsed(t *testing.T) {
	p := NewPagedPool(1000, 1000)
	p.Attach(1, cr, 0)
	if !p.BeginFill(1, 500, 0) {
		t.Fatal("half a page must fit a one-page budget")
	}
	p.CompleteFill(1, 0)
	if p.BeginFill(1, 600, 0) {
		t.Fatal("500+600 bits need a second page the budget lacks")
	}
	if got := p.Usage(0); got != 1000 {
		t.Errorf("refused fill left usage at %v, want the one page held", got)
	}
	if !p.BeginFill(1, 400, 0) {
		t.Error("500+400 bits share the page already held and must fit")
	}
	if st := p.Stats(); st.HighWater != 1000 {
		t.Errorf("high water %v, want one page: the refused fill must not register", st.HighWater)
	}
}

// The begin/complete pair at 700 streams on a slowly rising pool: every
// stream is refilled once per millisecond-spaced rotation with 0.75, 1
// or 1.25 times (and a hair more) what it consumed, so one fill in three
// sets a high-water record and walks the 700 streams while the other two
// are proven under the mark. Neither kind allocates.
func TestRisingFillCycleAllocFree(t *testing.T) {
	const n, dt = 700, si.Seconds(0.001)
	consumed := cr.DataIn(n * dt)
	p := NewPool(0)
	for id := 0; id < n; id++ {
		p.Attach(id, cr, 0)
		p.BeginFill(id, 3*consumed, 0)
		p.CompleteFill(id, 0)
	}
	start := p.Stats().HighWater
	i := 0
	now := si.Seconds(0)
	allocs := testing.AllocsPerRun(3*n, func() {
		now += dt
		p.BeginFill(i%n, consumed*si.Bits(0.7505+0.25*float64(i%3)), now)
		p.CompleteFill(i%n, now)
		i++
	})
	if allocs != 0 {
		t.Errorf("rising fill cycle at depth %d allocates %v objects/op, want 0", n, allocs)
	}
	if st := p.Stats(); st.HighWater <= start || st.Underruns != 0 {
		t.Errorf("high-water %v from %v with %d underruns: want a rising pool that never runs dry", st.HighWater, start, st.Underruns)
	}
}
