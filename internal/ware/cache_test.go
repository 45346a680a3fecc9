package ware

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// testBatch builds an arena batch with one dense column so MemBytes is
// deterministic: rows*(1+4) bitmap+values plus rows*4 labels = rows*9.
func testBatch(a *dwrf.Arena, rows int) *dwrf.Batch {
	b := a.NewBatch(rows)
	b.Labels = a.Labels(rows)
	b.Dense[1] = a.Dense(rows)
	return b
}

func TestWareIDStability(t *testing.T) {
	proj := schema.NewProjection(5, 1, 3)
	projSame := schema.NewProjection(3, 5, 1)
	a := StripeID(0xdeadbeef, "ignored/when/hashed", 7, proj)
	b := StripeID(0xdeadbeef, "other/path", 9, projSame)
	if a != b {
		t.Fatalf("content-hashed stripe IDs differ across paths: %v vs %v", a, b)
	}
	if a.Pack != PackStripe || a.Hash == 0 {
		t.Fatalf("bad stripe ID %v", a)
	}
	if c := StripeID(0xfeed, "p", 7, proj); c == a {
		t.Fatal("different content hashes collide")
	}
	if c := StripeID(0xdeadbeef, "p", 7, schema.NewProjection(1)); c == a {
		t.Fatal("different projections collide")
	}

	// Zero content hash falls back to path#stripe identity.
	p1 := StripeID(0, "tbl/part1", 0, proj)
	p2 := StripeID(0, "tbl/part1", 0, projSame)
	p3 := StripeID(0, "tbl/part1", 1, proj)
	if p1 != p2 {
		t.Fatalf("path-identity IDs differ: %v vs %v", p1, p2)
	}
	if p1 == p3 {
		t.Fatal("different stripes collide under path identity")
	}

	x1 := XformID(a, "plan-fp-1")
	x2 := XformID(a, "plan-fp-1")
	x3 := XformID(a, "plan-fp-2")
	if x1 != x2 || x1 == x3 {
		t.Fatalf("xform IDs unstable: %v %v %v", x1, x2, x3)
	}
	if x1.Pack != PackXform {
		t.Fatalf("xform pack = %q", x1.Pack)
	}
	if s := x1.String(); s != fmt.Sprintf("%s:%016x", PackXform, x1.Hash) {
		t.Fatalf("String = %q", s)
	}
}

// TestWareIDsPinned holds the IDs' renderings byte for byte. The digests
// are those of the same bytes formatted by fmt.Fprintf, so IDs stay
// comparable across versions of the program.
func TestWareIDsPinned(t *testing.T) {
	cases := []struct {
		name         string
		id           WareID
		stripe, xfrm string
	}{
		{"content, multi-ID projection", StripeID(0xdeadbeef, "ignored", 7, schema.NewProjection(3, 1, 2)), "cd7975b491fc8dda", "ec5e92990ae2f346"},
		{"content, zero-padded hex, nil projection", StripeID(0xabc, "x", 0, nil), "d593c77bf6fb3c40", "78373780a86d263b"},
		{"content, extreme IDs", StripeID(math.MaxUint64, "", 0, schema.NewProjection(-5, 0, math.MaxInt32, math.MinInt32)), "79e9ad7c8fb6e74a", "1a06632be6d0bcfd"},
		{"path fallback", StripeID(0, "tbl/part-000001", 12, schema.NewProjection(7)), "a0c253a908d52fbe", "e26c73c6b1624c21"},
		{"path fallback, empty path, nil projection", StripeID(0, "", 0, nil), "da0474ac8ad168de", "28405602e0ecec78"},
		{"path fallback, negative stripe, empty projection", StripeID(0, "p", -1, schema.NewProjection()), "d9e8613dbc6eaf60", "52f93418b808b556"},
		{"content, 18-ID projection", StripeID(1, "", 0, schema.NewProjection(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100, 101, 102, 103, 104, 105)), "ae8c36a4a0fe1d53", "328aeb1ec959d0f7"},
	}
	for _, c := range cases {
		if got, want := c.id.String(), PackStripe+":"+c.stripe; got != want {
			t.Errorf("%s: StripeID = %s, want %s", c.name, got, want)
		}
		if got, want := XformID(c.id, "plan-fp").String(), PackXform+":"+c.xfrm; got != want {
			t.Errorf("%s: XformID = %s, want %s", c.name, got, want)
		}
	}
}

func TestCacheInsertGetLifecycle(t *testing.T) {
	arena := dwrf.NewArena()
	c := NewCache(1 << 20)
	c.RegisterTenant("a", 1)

	b := testBatch(arena, 16)
	id := StripeID(1, "", 0, nil)
	got, shared := c.Insert(id, b, "a")
	if !shared || got == b || got.Dense[1] != b.Dense[1] {
		t.Fatalf("Insert = (%p,%v), want a new header over %p's columns, true", got, shared, b)
	}
	// The caller releases the view it was handed; the cache keeps b.
	got.Release()
	if b.Dense[1] == nil || b.Rows != 16 {
		t.Fatal("releasing the handed-out view emptied the cache's header")
	}

	// Two concurrent readers each get a header of their own.
	r1 := c.Get(id, "a")
	r2 := c.Get(id, "b")
	if r1 == b || r2 == b || r1 == r2 || r1.Dense[1] != b.Dense[1] || r2.Dense[1] != b.Dense[1] {
		t.Fatal("Get lent the cache's header or did not share its columns")
	}
	st := c.Stats()
	if st.StripeHits != 2 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ts := c.TenantStats("b"); ts.StripeHits != 1 || ts.Misses != 0 {
		t.Fatalf("tenant b stats = %+v", ts)
	}
	r1.Release()
	r2.Release()

	// Cache still holds its header: the entry survives and hits again.
	if hit := c.Get(id, "a"); hit == nil {
		t.Fatal("entry vanished while cached")
	} else {
		hit.Release()
	}

	// Duplicate insert is refused and the caller keeps its batch.
	dup := testBatch(arena, 16)
	if got, ok := c.Insert(id, dup, "a"); ok || got != dup {
		t.Fatal("duplicate insert accepted")
	}
	dup.Release()

	c.Flush()
	if c.Get(id, "a") != nil {
		t.Fatal("entry survived Flush")
	}
	if st := c.Stats(); st.Resident != 0 || st.Entries != 0 {
		t.Fatalf("post-flush stats = %+v", st)
	}
}

func TestCacheDisabledAndOversize(t *testing.T) {
	arena := dwrf.NewArena()
	dis := NewCache(0)
	b := testBatch(arena, 8)
	if _, ok := dis.Insert(StripeID(2, "", 0, nil), b, "a"); ok {
		t.Fatal("zero-capacity cache accepted an insert")
	}
	b.Release()

	small := NewCache(10) // smaller than any real batch
	b2 := testBatch(arena, 8)
	if _, ok := small.Insert(StripeID(3, "", 0, nil), b2, "a"); ok {
		t.Fatal("oversize batch accepted")
	}
	b2.Release()
	if st := small.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	arena := dwrf.NewArena()
	// rows=16 → 144 bytes per test batch; capacity fits exactly two.
	c := NewCache(2 * 144)
	c.RegisterTenant("a", 1)

	ids := make([]WareID, 3)
	for i := range ids {
		ids[i] = StripeID(uint64(100+i), "", 0, nil)
		b, ok := c.Insert(ids[i], testBatch(arena, 16), "a")
		if !ok {
			t.Fatalf("insert %d refused", i)
		}
		if i == 1 {
			// Touch entry 0 so entry 1 becomes the LRU victim.
			c.Get(ids[0], "a").Release()
		}
		b.Release()
	}
	if c.Get(ids[1], "a") != nil {
		t.Fatal("LRU entry 1 not evicted")
	}
	for _, i := range []int{0, 2} {
		b := c.Get(ids[i], "a")
		if b == nil {
			t.Fatalf("entry %d evicted unexpectedly", i)
		}
		b.Release()
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestCacheTenantFloorIsolation is the acceptance check: a cold tenant
// flooding the cache with new wares cannot evict a hot tenant below the
// hot tenant's fair-share floor.
func TestCacheTenantFloorIsolation(t *testing.T) {
	arena := dwrf.NewArena()
	const batchBytes = 144 // rows=16 testBatch
	c := NewCache(4 * batchBytes)
	c.RegisterTenant("hot", 1)
	c.RegisterTenant("cold", 1)
	// Floors: capacity/2 = 2 batches each.

	// Hot tenant fills the whole cache.
	for i := 0; i < 4; i++ {
		b, ok := c.Insert(StripeID(uint64(1000+i), "", 0, nil), testBatch(arena, 16), "hot")
		if !ok {
			t.Fatalf("hot insert %d refused", i)
		}
		b.Release()
	}
	// Cold tenant floods with twice the capacity of fresh wares.
	for i := 0; i < 8; i++ {
		b, ok := c.Insert(StripeID(uint64(2000+i), "", 0, nil), testBatch(arena, 16), "cold")
		if b != nil && ok {
			b.Release()
		}
	}
	hot := c.TenantStats("hot")
	if hot.FloorBytes != 2*batchBytes {
		t.Fatalf("hot floor = %d, want %d", hot.FloorBytes, 2*batchBytes)
	}
	if hot.Bytes < hot.FloorBytes {
		t.Fatalf("hot tenant evicted below floor: %d < %d", hot.Bytes, hot.FloorBytes)
	}
	cold := c.TenantStats("cold")
	if cold.Bytes > cold.FloorBytes {
		t.Fatalf("cold tenant above floor: %d > %d", cold.Bytes, cold.FloorBytes)
	}

	// Once the cold tenant is at its floor, further cold inserts evict
	// only its own entries — hot residency is untouched.
	beforeHot := c.TenantStats("hot").Bytes
	b, ok := c.Insert(StripeID(3000, "", 0, nil), testBatch(arena, 16), "cold")
	if !ok {
		t.Fatal("cold self-eviction insert refused")
	}
	b.Release()
	if after := c.TenantStats("hot").Bytes; after != beforeHot {
		t.Fatalf("hot residency changed %d → %d on cold insert", beforeHot, after)
	}
}

// TestCacheWeightedFloors checks floors track registered weights.
// A retired tenant stops counting toward the floors and stops being
// protected by one: a cache that outlives its sessions must not divide
// capacity by every session the node ever hosted.
func TestCacheRetiredTenantReleasesItsFloor(t *testing.T) {
	arena := dwrf.NewArena()
	const batchBytes = 144 // rows=16 testBatch
	c := NewCache(4 * batchBytes)
	c.RegisterTenant("a", 1)
	c.RegisterTenant("b", 1)
	insert := func(hash uint64, tenant string) {
		t.Helper()
		b, ok := c.Insert(StripeID(hash, "", 0, nil), testBatch(arena, 16), tenant)
		if !ok {
			t.Fatalf("%s insert %d refused", tenant, hash)
		}
		b.Release()
	}
	// Both tenants sit exactly at their floors, a's entries the coldest.
	insert(1, "a")
	if hit := c.Get(StripeID(1, "", 0, nil), "a"); hit != nil {
		hit.Release()
	}
	insert(2, "a")
	insert(3, "b")
	insert(4, "b")
	// While a is live its floor protects it: b's insert takes b's own LRU.
	insert(5, "b")
	if a := c.TenantStats("a"); a.Bytes != 2*batchBytes || a.FloorBytes != 2*batchBytes {
		t.Fatalf("live tenant a = %+v, want 2 batches resident at a 2-batch floor", a)
	}

	c.RetireTenant("a")
	if b := c.TenantStats("b"); b.FloorBytes != 4*batchBytes {
		t.Fatalf("b's floor = %d after a retired, want the whole capacity %d", b.FloorBytes, 4*batchBytes)
	}
	insert(6, "b")
	insert(7, "b")
	a := c.TenantStats("a")
	if a.Bytes != 0 || a.FloorBytes != 0 {
		t.Fatalf("retired tenant a = %+v, want its entries evicted by b's inserts", a)
	}
	if a.StripeHits != 1 || a.Misses != 2 {
		t.Fatalf("retired tenant's counters = %+v, want them kept (1 hit, 2 misses)", a.Counters)
	}
	if b := c.TenantStats("b"); b.Bytes != 4*batchBytes {
		t.Fatalf("b holds %d bytes, want the whole cache %d", b.Bytes, 4*batchBytes)
	}

	// Hosting the session again restores its share.
	c.RegisterTenant("a", 1)
	if a := c.TenantStats("a"); a.FloorBytes != 2*batchBytes {
		t.Fatalf("revived tenant's floor = %d, want %d", a.FloorBytes, 2*batchBytes)
	}
}

func TestCacheWeightedFloors(t *testing.T) {
	c := NewCache(900)
	c.RegisterTenant("x", 1)
	c.RegisterTenant("y", 2)
	if f := c.TenantStats("x").FloorBytes; f != 300 {
		t.Fatalf("x floor = %d, want 300", f)
	}
	if f := c.TenantStats("y").FloorBytes; f != 600 {
		t.Fatalf("y floor = %d, want 600", f)
	}
	// Invalid weights default to 1, mirroring CreateSession.
	c.RegisterTenant("y", -3)
	if f := c.TenantStats("y").FloorBytes; f != 450 {
		t.Fatalf("y floor after invalid weight = %d, want 450", f)
	}
}

// TestCacheConcurrentAccess hammers Insert/Get/Flush from many
// goroutines; run under -race this is the cache's data-race check.
func TestCacheConcurrentAccess(t *testing.T) {
	arena := dwrf.NewArena()
	c := NewCache(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 200; i++ {
				id := StripeID(uint64(i%17), "", 0, nil)
				if b := c.Get(id, tenant); b != nil {
					b.Release()
					continue
				}
				b, _ := c.Insert(id, testBatch(arena, 8), tenant)
				b.Release()
				if i%50 == 0 && g == 0 {
					c.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	c.Flush()
	if st := c.Stats(); st.Resident != 0 {
		t.Fatalf("resident after flush = %d", st.Resident)
	}
}
