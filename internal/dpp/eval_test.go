package dpp

import (
	"runtime"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// raceEnabled is set by race_test.go in -race builds, where allocation
// counts are not the program's.
var raceEnabled bool

// TestSplitMaterializesOnce pins the load step's allocations: one
// 256-row RM1 split at BatchSize 128, answered from the fleet cache's
// transformed ware, is written straight into its two tagged stream
// frames. A frame and its buffer come from the pool (the step returns
// them, as a grant does, and the frame list, as deliverSplit does), so a
// batch may cost at most 2 allocations; the split adds at most 4 more.
// The cache probe, its ware IDs and the frame writer's column selection
// allocate nothing. No tensor batch is built on the way: the split
// allocates fewer bytes than the smallest of its batches would hold as
// tensors. Materializing each batch and then
// encoding it cost 6 + 2 per sparse output allocations a batch (65 a
// split) and its tensors' bytes.
func TestSplitMaterializesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows, batchSize = 256, 128
	wh, splits, spec := rm1Table(t, rows, 1, batchSize)
	if len(splits) != 1 {
		t.Fatalf("splits = %d; want one", len(splits))
	}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	w.UseCache(ware.NewCache(64<<20), "t")
	var minBatch int64
	step := func() {
		ev, err := w.evalSplit(splits[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.frames) != rows/batchSize {
			t.Fatalf("%d frames, want %d", len(ev.frames), rows/batchSize)
		}
		for i, f := range ev.frames {
			if f.split() != 1 || f.rows != batchSize {
				t.Fatalf("frame %d: split tag %d, %d rows", i, f.split(), f.rows)
			}
			if minBatch == 0 || f.size < minBatch {
				minBatch = f.size
			}
			f.free()
		}
		ev.handedOn()
	}
	step() // the miss that publishes the transformed ware
	const perBatch = 2
	bound := float64(rows/batchSize*perBatch + 4)
	got := testing.AllocsPerRun(20, step)
	if got > bound {
		t.Fatalf("%.0f allocations per split, want at most %.0f (%d sparse outputs)", got, bound, len(spec.SparseOut))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	perSplit := int64(after.TotalAlloc-before.TotalAlloc) / runs
	if perSplit >= minBatch {
		t.Fatalf("a split allocates %d bytes, as much as a %d-byte tensor batch", perSplit, minBatch)
	}
	t.Logf("%.0f allocations and %d bytes per split (bounds %.0f and %d; %d sparse outputs)", got, perSplit, bound, minBatch, len(spec.SparseOut))
}

// ackCounter is the session master with CompleteSplit counted and
// answered locally: TestWarmSplitAllocs gives every pass a fresh split
// ID, which the master never leased.
type ackCounter struct {
	*Master
	acks int
}

func (a *ackCounter) CompleteSplit(string, int) error {
	a.acks++
	return nil
}

// TestWarmSplitAllocs pins what a warm split costs from the worker's
// cache probe to the trainer's hands: one 256-row RM1 split at
// BatchSize 128, answered from the cache's transformed ware, goes
// through evalSplit, the deliver step into the buffer, the pop, the
// client-side decode, the consumption ack that completes the split, and
// the client's dedup ledger. Each pass is a split the ledger has not
// seen, as a session's splits are. What may allocate is the decoded
// batch header, one per batch — tensor.DecodeBinary's *Batch, kept
// because with a recycled header a stale second Release would free the
// next owner's slab — and the ledger's and the split table's amortised
// map growth. The cache probe, ware IDs, frame list, split ledger
// entry, buffer slot, completion list and wake-ups allocate nothing.
func TestWarmSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows, batchSize = 256, 128
	wh, splits, spec := rm1Table(t, rows, 1, batchSize)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	acks := &ackCounter{Master: m}
	w.master = acks
	w.UseCache(ware.NewCache(64<<20), "t")
	c := &Client{}
	splitID := 0
	step := func() {
		ev, err := w.evalSplit(splits[0], splitID)
		if err != nil {
			t.Fatal(err)
		}
		ev.splitID = splitID
		splitID++
		if err := w.deliverSplit(ev, nil); err != nil {
			t.Fatal(err)
		}
		for {
			f, ok, _ := w.tryGetFrame()
			if !ok {
				break
			}
			b, err := f.decode()
			if err != nil {
				t.Fatal(err)
			}
			w.ackConsumed(f)
			f.free()
			if !c.admitLocked(b) {
				t.Fatalf("split %d batch %d/%d refused by the ledger", b.Split, b.Seq, b.SeqCount)
			}
			b.Release()
		}
	}
	step() // the miss that publishes the transformed ware
	const runs = 200
	got := testing.AllocsPerRun(runs, step)
	if acks.acks != runs+2 || len(w.splits) != 0 {
		t.Fatalf("%d splits acknowledged, %d still open; want %d and 0", acks.acks, len(w.splits), runs+2)
	}
	// AllocsPerRun's average is a whole number, so the map growth, under
	// one allocation a split over the runs, does not show.
	if batches := rows / batchSize; got > float64(batches) {
		t.Fatalf("%.0f allocations per warm split, want at most %d, one per decoded batch", got, batches)
	}
	t.Logf("%.0f allocations per warm split", got)
}

// rm1Table writes stripes stripes of rows RM1 rows each (the generator's
// 1 % scale) as one partition and returns its splits and a session spec
// over generator projection 1 and the standard graph, tensor outputs
// from the compiler.
func rm1Table(t *testing.T, rows, stripes, batchSize int) (*warehouse.Warehouse, []warehouse.Split, SessionSpec) {
	t.Helper()
	gspec := datagen.RM1.Scale(0.01, 1, rows*stripes)
	gen := datagen.NewGenerator(gspec, 1)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable("rm1", gspec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: rows})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := tbl.NewPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	for range rows * stripes {
		if err := pw.WriteRow(gen.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	proj := gen.Projection(1)
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		if col, _ := tbl.Schema.Column(id); col.Kind == schema.Dense {
			dense = append(dense, id)
		} else {
			sparse = append(sparse, id)
		}
	}
	graph := transforms.StandardGraph(dense, sparse, 4, 1<<20)
	denseOut, sparseOut, err := graph.TensorOutputs()
	if err != nil {
		t.Fatal(err)
	}
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wh, splits, SessionSpec{
		Table: "rm1", Features: proj.IDs(), Ops: graph.Ops(),
		DenseOut: denseOut, SparseOut: sparseOut, BatchSize: batchSize,
	}
}

// TestNextSessionReusesEvictedColumns pins the node's column arena
// outliving its sessions: the cache owns it, so the columns an eviction
// frees — here, a finished session's — are the ones the next session
// decodes and transforms into, and the plan's execution scratch carries
// over too. Two sessions (two masters, two compiled plans) run back to
// back over one cache that holds one split of a 4-split table, so every
// split misses and evicts; the first session runs two passes, noting in
// the second which columns its wares hold. Every column of the second
// session's wares must be one of those, and its miss path must allocate
// under half of what the first session's first pass did per split,
// which a worker with an arena of its own would not. The bound is not
// tighter because the arena's lists do not match a column to the
// feature it held: a column drawn for a feature longer than its last
// one grows, and on a table this small the columns take tens of passes
// to reach their steady capacities.
func TestNextSessionReusesEvictedColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows, stripes, batchSize = 256, 4, 128
	wh, splits, spec := rm1Table(t, rows, stripes, batchSize)
	if len(splits) != stripes {
		t.Fatalf("splits = %d; want %d", len(splits), stripes)
	}
	session := func(c *ware.Cache, id string) *Worker {
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(id, m, wh)
		if err != nil {
			t.Fatal(err)
		}
		w.UseCache(c, id)
		return w
	}
	eval := func(w *Worker, i int) {
		ev, err := w.evalSplit(splits[i], i)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ev.frames {
			f.free()
		}
		ev.handedOn()
	}
	// pass evaluates every split once and returns the bytes it allocated
	// per split.
	pass := func(w *Worker) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range splits {
			eval(w, i)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / stripes
	}
	// resident adds to cols the columns of split i's wares in c.
	resident := func(c *ware.Cache, w *Worker, i int, cols map[any]bool) {
		r, err := wh.CachedReader(splits[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		sid := ware.StripeID(r.StripeContentHash(splits[i].Stripe), splits[i].Path, splits[i].Stripe, w.proj)
		for _, id := range []ware.WareID{sid, ware.XformID(sid, w.plan.Fingerprint())} {
			b := c.Get(id, "observer")
			if b == nil {
				t.Fatalf("split %d: ware %v is not resident", i, id)
			}
			for _, col := range b.Dense {
				cols[col] = true
			}
			for _, col := range b.Sparse {
				cols[col] = true
			}
			for _, col := range b.ScoreList {
				cols[col] = true
			}
			b.Release()
		}
	}
	// One split's stripe ware plus transformed ware, and half a stripe
	// ware more, sizes the cache: a split's inserts evict the last one's.
	probe := ware.NewCache(64 << 20)
	eval(session(probe, "probe"), 0)
	stripe, _, err := wh.ReadSplitBatchCachedArena(splits[0], spec.Projection(), spec.Read, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded := stripe.MemBytes()

	cache := ware.NewCache(probe.Stats().Resident + decoded/2)
	first := session(cache, "first")
	firstPass := pass(first)
	held := make(map[any]bool)
	for i := range splits {
		eval(first, i)
		resident(cache, first, i, held)
	}
	second := session(cache, "second")
	perSplit := pass(second)
	if st := cache.TenantStats("second"); st.Misses != stripes || st.Hits() != 0 {
		t.Fatalf("second session: %d misses, %d hits; want every split to miss", st.Misses, st.Hits())
	}
	if perSplit >= firstPass/2 {
		t.Fatalf("the next session allocates %d bytes per missed split, want under %d (half the first session's first pass)", perSplit, firstPass/2)
	}
	cols := make(map[any]bool)
	resident(cache, second, stripes-1, cols)
	for col := range cols {
		if !held[col] {
			t.Fatalf("the second session's wares hold a column (%T) no ware of the first session held", col)
		}
	}
	t.Logf("%d bytes per missed split in the next session, %d in the first session's first pass (a split decodes %d bytes)", perSplit, firstPass, decoded)
}
