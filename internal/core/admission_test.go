package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBookMins(t *testing.T) {
	b := NewBook()
	if b.MinNK() != math.MaxInt || b.MinK() != math.MaxInt {
		t.Error("empty book should report MaxInt minimums")
	}
	b.Set(1, Allocation{N: 5, K: 2})
	b.Set(2, Allocation{N: 6, K: 1})
	b.Set(3, Allocation{N: 6, K: 3})
	if got := b.MinNK(); got != 7 {
		t.Errorf("MinNK = %d, want 7", got)
	}
	if got := b.MinK(); got != 1 {
		t.Errorf("MinK = %d, want 1", got)
	}
	b.Remove(2)
	if got := b.MinNK(); got != 7 { // {5+2, 6+3}
		t.Errorf("MinNK after remove = %d, want 7", got)
	}
	if got := b.MinK(); got != 2 {
		t.Errorf("MinK after remove = %d, want 2", got)
	}
	b.Remove(99) // unknown id is a no-op
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}

func TestBookSetOverwrites(t *testing.T) {
	b := NewBook()
	b.Set(1, Allocation{N: 5, K: 0})
	b.Set(1, Allocation{N: 8, K: 4})
	if got := b.MinNK(); got != 12 {
		t.Errorf("MinNK = %d, want 12 after overwrite", got)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestBookSetValidates(t *testing.T) {
	b := NewBook()
	defer func() {
		if recover() == nil {
			t.Error("invalid snapshot should panic")
		}
	}()
	b.Set(1, Allocation{N: 0, K: 0})
}

func TestAdmit(t *testing.T) {
	b := NewBook()
	// Empty system: admission passes while capacity remains.
	if !Admit(b, 0, 79) {
		t.Error("empty system should admit")
	}
	if Admit(b, 79, 79) {
		t.Error("full system should reject")
	}
	// One stream sized for n_i + k_i = 6: the 7th concurrent request fits,
	// the 8th does not.
	b.Set(1, Allocation{N: 5, K: 1})
	if !Admit(b, 5, 79) {
		t.Error("n+1 = 6 <= 6 should admit")
	}
	if Admit(b, 6, 79) {
		t.Error("n+1 = 7 > 6 should defer")
	}
}

// Property: Admit is exactly the conjunction of the capacity check and
// Assumption 1 for arbitrary books.
func TestAdmitDefinition(t *testing.T) {
	f := func(ids []uint8, n, nmax uint8) bool {
		b := NewBook()
		for i, raw := range ids {
			b.Set(i, Allocation{N: 1 + int(raw)%70, K: int(raw) % 9})
		}
		got := Admit(b, int(n), int(nmax))
		want := int(n)+1 <= int(nmax) && int(n)+1 <= b.MinNK()
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the incrementally maintained minimums always match a brute
// force over arbitrary Set/Remove sequences.
func TestBookIncrementalMinsMatchBruteForce(t *testing.T) {
	brute := func(m map[int]Allocation) (int, int) {
		nk, k := math.MaxInt, math.MaxInt
		for _, a := range m {
			if s := a.N + a.K; s < nk {
				nk = s
			}
			if a.K < k {
				k = a.K
			}
		}
		return nk, k
	}
	f := func(ops []uint16) bool {
		b := NewBook()
		shadow := make(map[int]Allocation)
		for _, op := range ops {
			id := int(op % 8)
			if op%5 == 0 {
				b.Remove(id)
				delete(shadow, id)
			} else {
				a := Allocation{N: 1 + int(op>>8)%20, K: int(op>>4) % 6}
				b.Set(id, a)
				shadow[id] = a
			}
			wantNK, wantK := brute(shadow)
			if b.MinNK() != wantNK || b.MinK() != wantK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Set returns early when the stored snapshot equals the new one. The
// reference is the unconditional path — Remove then Set retires the old
// entry and folds the new one in, whatever they hold — and the two books
// must report the same MinNK/MinK/Len at every query over random streams
// dense in repeated snapshots. Queries are sparse so a pending rescan
// (the last holder of a min re-set or removed) persists across operations.
func TestBookSetSameSnapshotMatchesUnconditionalPath(t *testing.T) {
	check := func(t *testing.T, step int, got, ref *Book) {
		t.Helper()
		if got.MinNK() != ref.MinNK() || got.MinK() != ref.MinK() || got.Len() != ref.Len() {
			t.Fatalf("step %d: MinNK/MinK/Len = %d/%d/%d, unconditional path says %d/%d/%d",
				step, got.MinNK(), got.MinK(), got.Len(), ref.MinNK(), ref.MinK(), ref.Len())
		}
	}
	t.Run("sole holder of the min re-set", func(t *testing.T) {
		got, ref := NewBook(), NewBook()
		for _, b := range []*Book{got, ref} {
			b.Set(1, Allocation{N: 1, K: 0}) // alone holds both mins
			b.Set(2, Allocation{N: 5, K: 3})
		}
		got.Set(1, Allocation{N: 1, K: 0})
		ref.Remove(1)
		ref.Set(1, Allocation{N: 1, K: 0})
		check(t, 0, got, ref)
		if got.MinNK() != 1 || got.MinK() != 0 {
			t.Fatalf("mins = %d/%d after re-setting the sole holder, want 1/0", got.MinNK(), got.MinK())
		}
		got.Set(1, Allocation{N: 9, K: 9})
		ref.Remove(1)
		ref.Set(1, Allocation{N: 9, K: 9})
		check(t, 1, got, ref)
		if got.MinNK() != 8 || got.MinK() != 3 {
			t.Fatalf("mins = %d/%d after the sole holder grew, want 8/3", got.MinNK(), got.MinK())
		}
	})
	t.Run("random streams", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, ref := NewBook(), NewBook()
			last := make(map[int]Allocation)
			for step := 0; step < 500; step++ {
				id := rng.Intn(6)
				switch op := rng.Intn(10); {
				case op < 2:
					got.Remove(id)
					ref.Remove(id)
					delete(last, id)
				default:
					a := Allocation{N: 1 + rng.Intn(4), K: rng.Intn(3)}
					if old, ok := last[id]; ok && op < 7 {
						a = old // the steady state: a fill that changes nothing
					}
					got.Set(id, a)
					ref.Remove(id)
					ref.Set(id, a)
					last[id] = a
				}
				if rng.Intn(3) == 0 {
					check(t, step, got, ref)
				}
			}
			check(t, 500, got, ref)
		}
	})
}
