package dpp

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// runWireSession runs one full session over the TCP data plane,
// optionally through a fleet cache, and returns the delivered content
// digest.
func runWireSession(t *testing.T, wh *warehouse.Warehouse, spec SessionSpec, cache *ware.Cache, tenant string) *tensor.ContentSum {
	t.Helper()
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(tenant, m, wh)
	if err != nil {
		t.Fatal(err)
	}
	if cache != nil {
		w.UseCache(cache, tenant)
	}
	wln, stopWorker, err := ServeWorker(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWorker()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(nil) }()

	api, err := DialWorkerFramed(wln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient([]WorkerAPI{api}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := tensor.NewContentSum()
	rows := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
		sum.AddBatch(b)
		b.Release()
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if rows != 128 {
		t.Fatalf("%s delivered %d rows, want 128", tenant, rows)
	}
	return sum
}

// TestFleetCacheGoldenParity is the cache's correctness gate: a session
// served from the fleet cache (stripe hits, transform hits, and
// eviction-then-refetch cycles) must deliver byte-identical tensor
// content to a cold decode+transform over the wire, with the cache
// enabled and disabled. It also pins the tally nothing else keeps: each
// of a tenant's 8 splits scores exactly one of miss, stripe hit or
// transform hit in ware.Cache.TenantStats.
func TestFleetCacheGoldenParity(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16) // 8 splits, 128 rows
	golden := runWireSession(t, wh, spec, nil, "baseline")

	cache := ware.NewCache(64 << 20)
	cold := runWireSession(t, wh, spec, cache, "cold")
	if st := cache.Stats(); st.Inserts == 0 || st.Hits() != 0 {
		t.Fatalf("cold run stats = %+v", st)
	}
	if ts := cache.TenantStats("cold"); ts.Misses != 8 || ts.Hits() != 0 {
		t.Fatalf("cold tenant stats = %+v, want 8 misses and no hits", ts)
	}
	warm := runWireSession(t, wh, spec, cache, "warm")
	ts := cache.TenantStats("warm")
	if ts.XformHits != 8 || ts.Misses != 0 || ts.HitRate() != 1 {
		t.Fatalf("warm tenant stats = %+v", ts)
	}
	// Same projection, another op list: a new plan fingerprint misses
	// every transformed ware and finds every decoded stripe.
	replanned := spec
	replanned.Ops = []transforms.Op{
		&transforms.SigridHash{In: 5, Out: 100, Salt: 2, MaxValue: 1 << 16},
		&transforms.Logit{In: 1, Out: 101},
	}
	runWireSession(t, wh, replanned, cache, "replanned")
	if ts := cache.TenantStats("replanned"); ts.StripeHits != 8 || ts.XformHits != 0 || ts.Misses != 0 {
		t.Fatalf("replanned tenant stats = %+v, want 8 stripe hits", ts)
	}

	// Evict everything; the next session re-decodes and
	// repopulates without drift.
	cache.Flush()
	refetch := runWireSession(t, wh, spec, cache, "refetch")
	if ts := cache.TenantStats("refetch"); ts.Misses == 0 {
		t.Fatalf("post-flush run hit a flushed cache: %+v", ts)
	}

	disabled := runWireSession(t, wh, spec, ware.NewCache(0), "off")

	// The other driver of the step: a ProcessOneSplit loop honours an
	// attached cache exactly as Run does.
	loopCache := ware.NewCache(64 << 20)
	loopSession := func(tenant string) *tensor.ContentSum {
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(tenant, m, wh)
		if err != nil {
			t.Fatal(err)
		}
		w.UseCache(loopCache, tenant)
		sum := tensor.NewContentSum()
		w.Sink = func(b *blob) { sum.AddBatch(b) }
		for {
			ok, err := w.ProcessOneSplit()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if done, _ := m.Done(); !done {
			t.Fatalf("%s: session not done", tenant)
		}
		return sum
	}
	loopCold := loopSession("loop-cold")
	loopWarm := loopSession("loop-warm")
	if ts := loopCache.TenantStats("loop-warm"); ts.XformHits != 8 || ts.Misses != 0 {
		t.Fatalf("ProcessOneSplit warm tenant stats = %+v, want 8 xform hits and no misses", ts)
	}

	for name, sum := range map[string]*tensor.ContentSum{
		"cold": cold, "warm": warm, "refetch": refetch, "disabled": disabled,
		"loop-cold": loopCold, "loop-warm": loopWarm,
	} {
		if !golden.Equal(sum) {
			t.Fatalf("%s content diverges from cold golden run", name)
		}
	}
}

// TestFleetCacheAbortWhileShared aborts a warm pipeline mid-run while
// another holder keeps views of the same cached batches: the abort
// path's unconditional Release must only drop the pipeline's own
// references. Run under -race this is column ownership's double-release
// check.
func TestFleetCacheAbortWhileShared(t *testing.T) {
	wh, spec := buildFixture(t, 128, 8) // 32 splits
	spec.Pipeline = PipelineOptions{Prefetchers: 4, TransformParallelism: 4}
	cache := ware.NewCache(256 << 20)

	// Fill: one session runs to completion, publishing every ware.
	{
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker("filler", m, wh)
		if err != nil {
			t.Fatal(err)
		}
		w.UseCache(cache, "filler")
		w.Sink = func(*blob) {}
		if err := w.Run(nil); err != nil {
			t.Fatal(err)
		}
	}

	// Hold: take a view of every resident batch, as a concurrent
	// session's in-flight reads would.
	var held []*dwrf.Batch
	for _, id := range cache.Wares() {
		if b := cache.Get(id, "holder"); b != nil {
			held = append(held, b)
		}
	}
	if len(held) == 0 {
		t.Fatal("no wares resident after fill")
	}

	// Abort: a second warm pipeline stops mid-run with full buffers;
	// its drain releases its views of cached batches.
	spec2 := spec
	spec2.BufferDepth = 2
	m, err := NewMaster(wh, spec2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("aborter", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	w.UseCache(cache, "aborter")
	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(stop) }()
	for i := 0; i < 2; i++ {
		if _, ok := getBatch(w); !ok {
			t.Fatal("worker finished before cancellation")
		}
	}
	close(stop)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("aborted run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after stop")
	}

	// The held references must still be intact and releasable exactly
	// once; flushing afterwards drops the cache's own references.
	for _, b := range held {
		if b.Rows == 0 || b.MemBytes() == 0 {
			t.Fatal("held batch lost its columns to the abort path")
		}
		b.Release()
	}
	cache.Flush()
	if st := cache.Stats(); st.Resident != 0 || st.Entries != 0 {
		t.Fatalf("cache not empty after flush: %+v", st)
	}
}

// TestMultiTenantFleetCacheCrossSessionReuse is the fleet-level
// acceptance check: two tenants consuming the same table through one
// shared fleet worker, where the second tenant's preprocessing is
// served from the first tenant's published wares.
func TestMultiTenantFleetCacheCrossSessionReuse(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16) // 8 splits, 128 rows
	svc := NewService(wh)
	launcher := &FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
		CacheBytes:     64 << 20,
	}
	// A single-node fleet so both sessions land on the same cache.
	o := NewOrchestrator(svc, launcher, NewAutoScaler(1, 1))
	o.ScaleInterval = time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	consume := func(id string) *tensor.ContentSum {
		s := spec
		if err := svc.CreateSession(id, s); err != nil {
			t.Fatal(err)
		}
		client, err := NewTenantClient(svc, id, SessionWorkerDialer(id), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		client.RefreshEvery = 500 * time.Microsecond
		sum := tensor.NewContentSum()
		rows := 0
		for {
			b, ok, err := client.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += b.Rows
			sum.AddBatch(b)
		}
		if rows != 128 {
			t.Fatalf("session %s consumed %d rows, want 128", id, rows)
		}
		if err := svc.CloseSession(id); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	sumA := consume("cache-tenant-a")
	sumB := consume("cache-tenant-b")
	if !sumA.Equal(sumB) {
		t.Fatal("second tenant's content diverges from the first's")
	}

	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet controller did not stop")
	}

	fleet := launcher.Launched()
	if len(fleet) != 1 {
		t.Fatalf("launched %d fleet workers, want 1", len(fleet))
	}
	ts := fleet[0].Cache().TenantStats("cache-tenant-b")
	if ts.HitRate() < 0.5 {
		t.Fatalf("second tenant hit rate %.2f, want >= 0.5 (stats %+v)", ts.HitRate(), ts)
	}
	if ts.BytesSaved == 0 {
		t.Fatal("second tenant reports no bytes saved")
	}
	// A session is a cache tenant only while the node hosts its pipeline:
	// once retired it holds no share of the floors, and its tally stays.
	if first := fleet[0].Cache().TenantStats("cache-tenant-a"); first.Weight != 0 || first.FloorBytes != 0 || first.Misses == 0 {
		t.Fatalf("retired first tenant = %+v, want weight and floor 0 with its 8 misses kept", first)
	}
}

// TestServiceSessionWeightValidation is the CreateSession bounds
// regression: NaN, Inf, and negative weights must be rejected before a
// master exists, and zero still defaults to weight 1.
func TestServiceSessionWeightValidation(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.001} {
		s := spec
		s.Weight = bad
		id := fmt.Sprintf("bad-%d", i)
		if err := svc.CreateSession(id, s); err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
		infos, err := svc.ListSessions()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("rejected session registered: %+v", infos)
		}
	}
	s := spec
	s.Weight = 0
	if err := svc.CreateSession("zero", s); err != nil {
		t.Fatal(err)
	}
	infos, err := svc.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Weight != 1 {
		t.Fatalf("zero weight did not default to 1: %+v", infos)
	}
}
