package dwrf

import "testing"

// RaceEnabled reports whether the test binary runs under the race
// detector, for the package's external tests.
func RaceEnabled() bool { return raceEnabled }

// ShareFixture builds an arena batch with one dense and one sparse
// column so the release paths for both column kinds are exercised.
// Exported for the package's external tests.
func ShareFixture(a *Arena, rows int) *Batch {
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

// drawn counts how often the arena hands out c among the next n dense
// columns it gives.
func drawn(a *Arena, c *DenseColumn, n int) int {
	hits := 0
	for range n {
		if a.Dense(1) == c {
			hits++
		}
	}
	return hits
}

// TestBatchCacheShareRetainRelease shares a batch's columns with a view
// and releases the two headers in turn: the columns go back to the
// arena on the second release, not the first, and exactly once.
func TestBatchCacheShareRetainRelease(t *testing.T) {
	a := NewArena()
	b := ShareFixture(a, 4)
	dense := b.Dense[1]
	if n := dense.extra.Load(); n != 0 {
		t.Fatalf("a fresh column counts %d extra owners, want 0", n)
	}
	v := b.View(a)
	if v == b || v.Dense[1] != dense || v.Sparse[5] != b.Sparse[5] {
		t.Fatal("a view is not a new header over the same columns")
	}
	if n := dense.extra.Load(); n != 1 {
		t.Fatalf("a viewed column counts %d extra owners, want 1", n)
	}
	b.Release()
	if len(b.Dense) != 0 || b.arena != nil {
		t.Fatal("Release did not empty the header")
	}
	if v.Dense[1] != dense || len(dense.Values) != 4 || dense.extra.Load() != 0 {
		t.Fatal("the view's column was freed or miscounted by the other header's release")
	}
	if drawn(a, dense, 4) != 0 {
		t.Fatal("a column came back to the arena while a view still holds it")
	}
	v.Release()
	if got := drawn(a, dense, 4); got != 1 {
		t.Fatalf("the column came back %d times after its last release, want 1", got)
	}
}

// TestBatchCacheDeriveBorrowsColumns replaces a column in a Derive
// view: the view's release returns the column it built and only drops
// its reference on the one it replaced, which the source keeps intact.
func TestBatchCacheDeriveBorrowsColumns(t *testing.T) {
	a := NewArena()
	src := ShareFixture(a, 4)
	parent := src.View(a) // the cache's header, say

	view := src.Derive(a) // releases src: parent and view hold the columns
	if view.Dense[1] != parent.Dense[1] || view.Sparse[5] != parent.Sparse[5] {
		t.Fatal("view does not alias its source's columns")
	}
	if &view.Labels[0] == &parent.Labels[0] || view.Labels[3] != parent.Labels[3] {
		t.Fatal("a view must hold a copy of its source's labels")
	}

	borrowed := view.Dense[1]
	fresh := a.Dense(4)
	view.SetDense(1, fresh)
	if borrowed.extra.Load() != 0 {
		t.Fatal("SetDense did not release the replaced column")
	}
	view.Release()
	if parent.Dense[1] != borrowed || len(borrowed.Values) != 4 || borrowed.Values[2] != 2 {
		t.Fatal("borrowed column damaged by view release")
	}
	if got := drawn(a, fresh, 4); got != 1 {
		t.Fatalf("the view's own column came back %d times, want 1", got)
	}
	parent.Release()
	if got := drawn(a, borrowed, 4); got != 1 {
		t.Fatalf("the shared column came back %d times after its last release, want 1", got)
	}
}

// TestBatchCacheDeriveViewKeepsEvictedParentAlive releases the source
// of a view first, as an eviction does while a consumer still reads:
// the view's columns stay intact until the view itself lets go.
func TestBatchCacheDeriveViewKeepsEvictedParentAlive(t *testing.T) {
	a := NewArena()
	parent := ShareFixture(a, 4)
	view := parent.View(a)
	col := parent.Dense[1]

	parent.Release() // the cache evicts
	if v := view.Dense[1].Values[2]; v != 2 {
		t.Fatalf("held value corrupted after the source's release: %v", v)
	}
	if drawn(a, col, 4) != 0 {
		t.Fatal("the source's release freed a column the view holds")
	}
	view.Release()
	if got := drawn(a, col, 4); got != 1 {
		t.Fatalf("the column came back %d times after the view's release, want 1", got)
	}
}

// TestBatchCacheReleaseNonArenaBatchSafe releases batches without an
// arena (BatchFromSamples, struct literals, gob): what they drop goes to
// the collector, a view over one works like any other, and a second
// Release is a no-op.
func TestBatchCacheReleaseNonArenaBatchSafe(t *testing.T) {
	a := NewArena()
	b := newBatch(4)
	b.Labels = []float32{1, 2, 3, 4}
	col := &DenseColumn{Present: make([]bool, 4), Values: make([]float32, 4)}
	b.Dense[1] = col
	v := b.View(a)
	b.Release()
	b.Release()
	if v.Dense[1] != col || col.extra.Load() != 0 || v.Labels[3] != 4 {
		t.Fatal("a view over a batch without an arena lost its column or labels")
	}
	v.Release() // the last holder: the column joins the view's arena
	if got := drawn(a, col, 4); got != 1 {
		t.Fatalf("the heap column came back %d times, want 1", got)
	}

	b2 := newBatch(4)
	b2.Dense[1] = &DenseColumn{}
	b2.Release()
	b2.Release()
}

// TestColumnOwnershipAliasedEntriesRecycleOnce puts one column under
// two feature IDs as two references: the header's release returns it
// to the arena once, so no two later callers are handed the same
// column.
func TestColumnOwnershipAliasedEntriesRecycleOnce(t *testing.T) {
	a := NewArena()
	b := a.NewBatch(4)
	col := a.Dense(4)
	b.Dense[1] = col
	col.retain()
	b.Dense[2] = col
	b.Release()
	if got := drawn(a, col, 4); got != 1 {
		t.Fatalf("an aliased column came back %d times, want 1", got)
	}

	// Replacing one of the two entries drops one reference, not both.
	b = a.NewBatch(4)
	col = a.Dense(4)
	b.Dense[1] = col
	col.retain()
	b.Dense[2] = col
	b.SetDense(2, a.Dense(4))
	if b.Dense[1] != col || drawn(a, col, 4) != 0 {
		t.Fatal("replacing one alias freed the column the other still holds")
	}
	b.Release()
	if got := drawn(a, col, 8); got != 1 {
		t.Fatalf("the column came back %d times, want 1", got)
	}
}
