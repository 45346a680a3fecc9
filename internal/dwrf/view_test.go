package dwrf_test

import (
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/ware"
)

// TestDeriveAllocs pins a view as free: its header and maps come from
// the arena's batch list and its labels from the arena's label list, so
// deriving a view and releasing it — and a cache hit, which hands out
// such a view, and its release — allocates nothing once the lists are
// warm.
func TestDeriveAllocs(t *testing.T) {
	if dwrf.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := dwrf.NewArena()
	parent := dwrf.ShareFixture(a, 64)
	derive := func() {
		view := parent.View(a).Derive(a)
		if view.Dense[1] != parent.Dense[1] || view.Sparse[5] != parent.Sparse[5] {
			t.Fatal("view does not alias parent columns")
		}
		view.Release()
	}
	derive()
	if got := testing.AllocsPerRun(100, derive); got != 0 {
		t.Fatalf("View + Derive + Release allocates %.0f times, want 0", got)
	}
	if parent.Dense[1] == nil || len(parent.Dense[1].Values) != 64 {
		t.Fatal("parent columns damaged by view releases")
	}
	parent.Release()

	c := ware.NewCache(1 << 20)
	id := ware.StripeID(1, "", 0, nil)
	inserted, ok := c.Insert(id, dwrf.ShareFixture(c.Arena(), 64), "t")
	if !ok {
		t.Fatal("insert refused")
	}
	inserted.Release()
	get := func() {
		b := c.Get(id, "t")
		if b == nil || b.Rows != 64 || len(b.Labels) != 64 {
			t.Fatal("cache hit lost its rows")
		}
		b.Release()
	}
	get()
	if got := testing.AllocsPerRun(100, get); got != 0 {
		t.Fatalf("Cache.Get + Release allocates %.0f times, want 0", got)
	}
	c.Flush()
}
