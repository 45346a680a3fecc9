package ware

import (
	"math"
	"sync"

	"dsi/internal/dwrf"
	"dsi/internal/freelist"
)

// Cache is a byte-bounded, tenant-fair, content-addressed store of
// decoded and transformed batches: one per fleet node, shared by every
// pipeline the node hosts. The cache keeps one header per entry and
// never lends it: Get and an accepted Insert hand out a View, a header
// of the caller's own over the entry's columns, so an entry can be
// evicted while consumers still read it — a column returns to the arena
// when its last holder, cache or consumer, releases it.
//
// The cache owns the node's column arena (Arena): every pipeline that
// uses the cache decodes and transforms through it, so the columns an
// eviction frees — whichever session decoded them, live or finished —
// are the ones the next decode on the node draws.
//
// Fairness mirrors the service's weighted fair-share scheduler: each
// tenant gets a byte floor proportional to its weight, and eviction
// never takes a victim below its owner's floor on behalf of *another*
// tenant. A cold tenant churning through new data therefore steals only
// the over-floor surplus of hot tenants (and its own entries), never a
// hot tenant's fair share. An insert with no legal victim is refused —
// the batch simply stays the inserting pipeline's.
type Cache struct {
	arena *dwrf.Arena

	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[WareID]*entry
	// lru is the sentinel of the entries' intrusive recency ring:
	// lru.next is the most recently used entry, lru.prev the least.
	lru     entry
	tenants map[string]*tenantState

	counters  Counters // node-wide: the sum over tenants
	inserts   int64
	evictions int64
	rejected  int64
}

type entry struct {
	id         WareID
	batch      *dwrf.Batch
	bytes      int64
	tenant     string // inserting tenant, charged for residency
	prev, next *entry // recency ring neighbours (Cache.lru)
}

// freeEntries recycles dropped entries across every cache, so an insert
// in a full cache reuses the entry its eviction dropped.
var freeEntries freelist.List[*entry]

// unlink removes e from the recency ring.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// pushFrontLocked links e in as the most recently used entry. Callers
// hold c.mu.
func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

type tenantState struct {
	weight   float64
	bytes    int64
	counters Counters
}

// Counters is the per-split cache outcome tally, scored by Get and
// Insert and nowhere else: every split an evaluator looks up ends as
// exactly one of a transform hit (fetch, decode and the plan skipped),
// a stripe hit (fetch and decode skipped) or a miss. The cache keeps
// one per tenant and one node-wide; Stats and TenantStats embed it.
type Counters struct {
	StripeHits int64
	XformHits  int64
	Misses     int64
	// BytesSaved is decoded/transformed column bytes served from the
	// cache instead of recomputed.
	BytesSaved int64
}

// Hits sums stripe and transform hits.
func (n Counters) Hits() int64 { return n.StripeHits + n.XformHits }

// HitRate is Hits/(Hits+Misses), 0 when no lookups happened.
func (n Counters) HitRate() float64 {
	total := n.Hits() + n.Misses
	if total == 0 {
		return 0
	}
	return float64(n.Hits()) / float64(total)
}

// hit scores one ware of the given pack served from the cache.
func (n *Counters) hit(pack string, bytes int64) {
	if pack == PackXform {
		n.XformHits++
	} else {
		n.StripeHits++
	}
	n.BytesSaved += bytes
}

// Stats is a point-in-time snapshot of cache-wide counters.
type Stats struct {
	Capacity int64
	Resident int64
	Entries  int
	Counters
	Inserts   int64
	Evictions int64
	Rejected  int64
}

// TenantStats is one tenant's view of the cache.
type TenantStats struct {
	Weight     float64
	Bytes      int64 // resident bytes charged to this tenant
	FloorBytes int64 // fair-share floor eviction respects
	Counters
}

// NewCache returns a cache bounded to capacity bytes, with a new arena
// for the node's columns. A non-positive capacity yields a cache that
// refuses every insert (lookups still work and count misses), which is
// how "disabled" composes with the rest of the wiring without nil
// checks.
func NewCache(capacity int64) *Cache {
	c := &Cache{
		arena:    dwrf.NewArena(),
		capacity: capacity,
		entries:  make(map[WareID]*entry),
		tenants:  make(map[string]*tenantState),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Arena returns the node's column arena, which every pipeline using the
// cache decodes and transforms through.
func (c *Cache) Arena() *dwrf.Arena { return c.arena }

// RegisterTenant records a tenant's scheduling weight, which sets its
// eviction floor. Non-finite or non-positive weights register as 1
// (mirroring the service's CreateSession defaulting). Re-registering
// updates the weight in place.
func (c *Cache) RegisterTenant(id string, weight float64) {
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
		weight = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant(id).weight = weight
}

// RetireTenant drops a departed tenant's weight to zero: it stops
// diluting the floors of the tenants still running, and what it left
// resident loses its floor's protection and ages out under anyone's
// inserts. Its counters stay readable (TenantStats); RegisterTenant
// revives it. Without this a cache that outlives its sessions divides
// capacity among every session the node ever hosted.
func (c *Cache) RetireTenant(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tenants[id]; t != nil {
		t.weight = 0
	}
}

// tenant returns the state for id, creating it with weight 1. Callers
// hold c.mu.
func (c *Cache) tenant(id string) *tenantState {
	t := c.tenants[id]
	if t == nil {
		t = &tenantState{weight: 1}
		c.tenants[id] = t
	}
	return t
}

// floorLocked computes a tenant's byte floor: capacity scaled by its
// share of total registered weight. Callers hold c.mu.
func (c *Cache) floorLocked(t *tenantState) int64 {
	var total float64
	for _, ts := range c.tenants {
		total += ts.weight
	}
	if total <= 0 {
		return 0
	}
	return int64(float64(c.capacity) * t.weight / total)
}

// Get looks up a ware and, on a hit, returns a view of it — a header of
// the caller's own over the cached columns — which the caller releases
// exactly once. Returns nil on a miss. The hit is attributed to tenant;
// misses are NOT counted here — a full per-split miss is counted by the
// stripe Insert that follows, so a missed xform probe that then hits
// the stripe cache still scores as one hit.
func (c *Cache) Get(id WareID, tenant string) *dwrf.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[id]
	if e == nil {
		return nil
	}
	e.unlink()
	c.pushFrontLocked(e)
	c.counters.hit(e.id.Pack, e.bytes)
	c.tenant(tenant).counters.hit(e.id.Pack, e.bytes)
	return e.batch.View(c.arena)
}

// Insert offers a batch for caching under id, charged to tenant. On
// acceptance the cache keeps b as the entry's header and returns
// (view, true): a view of b, as Get hands out, which the caller uses and
// releases in b's place. On refusal — duplicate key, zero capacity,
// batch larger than capacity, or no eviction victim above its owner's
// floor — it returns (b, false) and b stays the caller's.
//
// A stripe-pack Insert also counts one per-split cache miss for the
// tenant (accepted or not): every split lookup ends in exactly one of
// xform hit, stripe hit, or stripe insert.
func (c *Cache) Insert(id WareID, b *dwrf.Batch, tenant string) (*dwrf.Batch, bool) {
	size := b.MemBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenant(tenant)
	if id.Pack == PackStripe {
		t.counters.Misses++
		c.counters.Misses++
	}
	if c.entries[id] != nil || size <= 0 || size > c.capacity {
		c.rejected++
		return b, false
	}
	if !c.evictForLocked(size, tenant) {
		c.rejected++
		return b, false
	}
	e, ok := freeEntries.Get()
	if !ok {
		e = new(entry)
	}
	e.id, e.batch, e.bytes, e.tenant = id, b, size, tenant
	c.pushFrontLocked(e)
	c.entries[id] = e
	c.used += size
	t.bytes += size
	c.inserts++
	return b.View(c.arena), true
}

// evictForLocked frees room for need bytes on behalf of tenant,
// dropping least-recently-used entries whose owner is either over its
// floor or is the inserting tenant itself. Reports whether the space
// was found; on false the cache is left as it was apart from any
// legally evicted entries. Callers hold c.mu.
func (c *Cache) evictForLocked(need int64, tenant string) bool {
	for c.used+need > c.capacity {
		victim := c.victimLocked(tenant)
		if victim == nil {
			return false
		}
		c.dropLocked(victim)
		c.evictions++
	}
	return true
}

// victimLocked scans the LRU from the cold end for the first entry
// eviction may legally take on behalf of tenant. Callers hold c.mu.
func (c *Cache) victimLocked(tenant string) *entry {
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		if e.tenant == tenant {
			return e
		}
		owner := c.tenants[e.tenant]
		if owner == nil || owner.bytes > c.floorLocked(owner) {
			return e
		}
	}
	return nil
}

// dropLocked removes an entry and releases the cache's header; the
// views consumers still hold keep their columns alive.
// The entry itself goes back to freeEntries. Callers hold c.mu.
func (c *Cache) dropLocked(e *entry) {
	e.unlink()
	delete(c.entries, e.id)
	c.used -= e.bytes
	if t := c.tenants[e.tenant]; t != nil {
		t.bytes -= e.bytes
	}
	e.batch.Release()
	*e = entry{}
	freeEntries.Put(e)
}

// Flush evicts every entry (tests and eviction-refetch cycles).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.prev != &c.lru {
		c.dropLocked(c.lru.prev)
		c.evictions++
	}
}

// Stats snapshots cache-wide counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity:  c.capacity,
		Resident:  c.used,
		Entries:   len(c.entries),
		Counters:  c.counters,
		Inserts:   c.inserts,
		Evictions: c.evictions,
		Rejected:  c.rejected,
	}
}

// TenantStats snapshots one tenant's counters and current floor.
func (c *Cache) TenantStats(id string) TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenants[id]
	if t == nil {
		return TenantStats{}
	}
	return TenantStats{
		Weight:     t.weight,
		Bytes:      t.bytes,
		FloorBytes: c.floorLocked(t),
		Counters:   t.counters,
	}
}

// Wares lists resident ware IDs, most recently used first.
func (c *Cache) Wares() []WareID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WareID, 0, len(c.entries))
	for e := c.lru.next; e != &c.lru; e = e.next {
		out = append(out, e.id)
	}
	return out
}
