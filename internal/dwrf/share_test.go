package dwrf

import "testing"

// shareFixture builds an arena batch with one dense and one sparse
// column so free() paths for both column kinds are exercised.
func shareFixture(a *Arena, rows int) *Batch {
	b := a.NewBatch(rows)
	b.Labels = a.Labels(rows)
	d := a.Dense(rows)
	for i := range d.Values {
		d.Present[i] = true
		d.Values[i] = float32(i)
	}
	b.Dense[1] = d
	s := a.Sparse(rows)
	for i := 0; i < rows; i++ {
		s.Values = append(s.Values, int64(i))
		s.Offsets[i+1] = int32(len(s.Values))
	}
	b.Sparse[5] = s
	return b
}

func TestBatchCacheShareRetainRelease(t *testing.T) {
	a := NewArena()
	b := shareFixture(a, 4)
	if b.Shared() {
		t.Fatal("fresh batch reports shared")
	}
	b.Share()
	if !b.Shared() {
		t.Fatal("shared batch reports unshared")
	}
	b.Retain()
	dense := b.Dense[1]
	b.Release() // drops the Retain
	if b.Dense[1] != dense || b.Arena() == nil {
		t.Fatal("columns freed while a reference remains")
	}
	b.Release() // last reference: columns return to the arena
	if len(b.Dense) != 0 || b.Arena() != nil {
		t.Fatal("final release did not free the batch")
	}

	// Double-Share panics: shared ownership must be established once.
	b2 := shareFixture(a, 4)
	b2.Share()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Share did not panic")
			}
		}()
		b2.Share()
	}()
	b2.Release()

	// Retain on an exclusive batch panics.
	b3 := shareFixture(a, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Retain on unshared batch did not panic")
			}
		}()
		b3.Retain()
	}()
	b3.Release()
}

func TestBatchCacheDeriveBorrowsColumns(t *testing.T) {
	a := NewArena()
	parent := shareFixture(a, 4)
	parent.Share()
	parent.Retain() // reference consumed by Derive

	view := parent.Derive(a)
	if !view.Shared() {
		t.Fatal("Derive view reports unshared")
	}
	if view.Dense[1] != parent.Dense[1] || view.Sparse[5] != parent.Sparse[5] {
		t.Fatal("view does not alias parent columns")
	}

	// A transform replaces a map entry with a fresh column; the borrowed
	// one must survive the view's release, the fresh one must recycle.
	borrowed := view.Dense[1]
	fresh := a.Dense(4)
	view.Dense[1] = fresh
	view.Release()
	if parent.Dense[1] != borrowed || len(borrowed.Values) != 4 {
		t.Fatal("borrowed column damaged by view release")
	}
	// The view consumed one parent reference; one (Share's) remains.
	if !parent.Shared() || parent.Arena() == nil {
		t.Fatal("parent freed while cache reference remains")
	}
	parent.Release()
	if len(parent.Dense) != 0 || parent.Arena() != nil {
		t.Fatal("parent not freed after last release")
	}
}

func TestBatchCacheDeriveViewKeepsEvictedParentAlive(t *testing.T) {
	a := NewArena()
	parent := shareFixture(a, 4)
	parent.Share()  // cache's reference
	parent.Retain() // consumer's reference
	view := parent.Derive(a)

	// Cache evicts: drops its reference while the view still reads.
	parent.Release()
	if v := view.Dense[1].Values[2]; v != 2 {
		t.Fatalf("borrowed value corrupted after parent eviction: %v", v)
	}
	// Only the view's release frees the parent's columns.
	if parent.Arena() == nil {
		t.Fatal("parent freed while view still borrows its columns")
	}
	view.Release()
	if len(parent.Dense) != 0 || parent.Arena() != nil {
		t.Fatal("parent not freed by last view release")
	}
}

func TestBatchCacheReleaseNonArenaBatchSafe(t *testing.T) {
	// Batches without an arena (BatchFromSamples, gob decode) must pass
	// through Share/Retain/Release without touching any pool.
	b := newBatch(4)
	b.Share()
	b.Retain()
	b.Release()
	b.Release()
	// Exclusive non-arena batches tolerate repeated Release (historical
	// contract used by defer-heavy callers).
	b2 := newBatch(4)
	b2.Release()
	b2.Release()
}

// TestDeriveAllocs pins a view as free: its maps come from the arena's
// batch pool and which columns it borrows is read off the parent, so
// deriving a view over a cached batch and releasing it allocates
// nothing once the pool is warm.
func TestDeriveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := NewArena()
	parent := shareFixture(a, 64)
	parent.Share()
	cycle := func() {
		parent.Retain()
		view := parent.Derive(a)
		if view.Dense[1] != parent.Dense[1] || view.Sparse[5] != parent.Sparse[5] {
			t.Fatal("view does not alias parent columns")
		}
		view.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("Derive + Release allocates %.0f times, want 0", got)
	}
	if parent.Dense[1] == nil || len(parent.Dense[1].Values) != 64 {
		t.Fatal("parent columns damaged by view releases")
	}
	parent.Release()
}
