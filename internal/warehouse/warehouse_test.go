package warehouse

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

func testSchema(t *testing.T) *schema.TableSchema {
	t.Helper()
	ts := schema.NewTableSchema("rm")
	for i := 1; i <= 4; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Dense, Name: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i <= 8; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Sparse, Name: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

func newWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return New(c)
}

func fillPartition(t *testing.T, tbl *Table, key string, rows int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pw, err := tbl.NewPartition(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		s := schema.NewSample()
		s.Label = float32(rng.Intn(2))
		for id := schema.FeatureID(1); id <= 4; id++ {
			s.DenseFeatures[id] = rng.Float32()
		}
		for id := schema.FeatureID(5); id <= 8; id++ {
			vals := make([]int64, 1+rng.Intn(5))
			for j := range vals {
				vals[j] = rng.Int63n(1000)
			}
			s.SparseFeatures[id] = vals
		}
		if err := pw.WriteRow(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	w := newWarehouse(t)
	ts := testSchema(t)
	if _, err := w.CreateTable("rm1", ts, dwrf.WriterOptions{Flatten: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateTable("rm1", ts, dwrf.WriterOptions{}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	tbl, err := w.Table("rm1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name != "rm1" {
		t.Fatalf("table name = %s", tbl.Name)
	}
	if _, err := w.Table("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing table error = %v", err)
	}
}

func TestPartitionLifecycle(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "2026-06-01", 40, 1)
	fillPartition(t, tbl, "2026-06-02", 40, 2)

	parts := tbl.Partitions()
	if len(parts) != 2 || parts[0].Key != "2026-06-01" {
		t.Fatalf("Partitions = %+v", parts)
	}
	if parts[0].Rows != 40 || parts[0].Bytes <= 0 {
		t.Fatalf("partition stats = %+v", parts[0])
	}
	if _, err := tbl.NewPartition("2026-06-01"); err == nil {
		t.Fatal("duplicate partition accepted")
	}
	if _, err := tbl.Partition("2026-09-09"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing partition error = %v", err)
	}
}

func TestTotalAndUsedBytes(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		fillPartition(t, tbl, fmt.Sprintf("2026-06-0%d", d), 30, int64(d))
	}
	total := tbl.TotalBytes()
	used, err := tbl.BytesForKeys([]string{"2026-06-01", "2026-06-02"})
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || used <= 0 || used >= total {
		t.Fatalf("total=%d used=%d", total, used)
	}
	if _, err := tbl.BytesForKeys([]string{"bad"}); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestSplitsEnumerateStripes(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "p1", 40, 1) // 3 stripes: 16+16+8
	fillPartition(t, tbl, "p2", 16, 2) // 1 stripe

	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("Splits = %d, want 4", len(splits))
	}
	var rows int
	for _, sp := range splits {
		rows += sp.Rows
	}
	if rows != 56 {
		t.Fatalf("split rows = %d, want 56", rows)
	}
	one, err := tbl.Splits([]string{"p2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Partition != "p2" {
		t.Fatalf("Splits(p2) = %+v", one)
	}
}

func TestReadSplitRoundTrip(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "p1", 32, 7)
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	proj := schema.NewProjection(1, 5)
	var total int
	for _, sp := range splits {
		rows, stats, err := w.ReadSplit(sp, proj, dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BytesRead <= 0 {
			t.Fatal("no bytes accounted")
		}
		for _, r := range rows {
			if len(r.DenseFeatures) != 1 || len(r.SparseFeatures) != 1 {
				t.Fatalf("projection leak: %+v", r)
			}
		}
		total += len(rows)
	}
	if total != 32 {
		t.Fatalf("read %d rows, want 32", total)
	}
	// Batch path over the same split.
	b, _, err := w.ReadSplitBatchCached(splits[0], proj, dwrf.ReadOptions{Flatmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 16 || len(b.Dense) != 1 || len(b.Sparse) != 1 {
		t.Fatalf("batch = rows %d dense %d sparse %d", b.Rows, len(b.Dense), len(b.Sparse))
	}
}

func TestFeatureBytesAndProjectedBytes(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "p1", 64, 3)

	fb, err := tbl.FeatureBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 features + label pseudo-feature 0.
	if len(fb) != 9 {
		t.Fatalf("FeatureBytes has %d entries, want 9", len(fb))
	}
	// Sparse features must be bigger than dense ones on average.
	var denseB, sparseB int64
	for id := schema.FeatureID(1); id <= 4; id++ {
		denseB += fb[id]
	}
	for id := schema.FeatureID(5); id <= 8; id++ {
		sparseB += fb[id]
	}
	if sparseB <= denseB {
		t.Fatalf("sparse bytes %d should exceed dense bytes %d", sparseB, denseB)
	}

	proj := schema.NewProjection(1, 2)
	pb, err := tbl.ProjectedBytes([]string{"p1"}, proj)
	if err != nil {
		t.Fatal(err)
	}
	total := tbl.TotalBytes()
	if pb <= 0 || pb >= total/2 {
		t.Fatalf("projected bytes %d should be a small share of %d", pb, total)
	}
}

func TestWriteOptionsAffectNewPartitionsOnly(t *testing.T) {
	w := newWarehouse(t)
	tbl, err := w.CreateTable("rm1", testSchema(t), dwrf.WriterOptions{Flatten: false})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "old", 16, 1)
	tbl.WriteOptions = dwrf.WriterOptions{Flatten: true}
	fillPartition(t, tbl, "new", 16, 2)

	oldSplits, err := tbl.Splits([]string{"old"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := dwrf.OpenReader(w.Cluster(), oldSplits[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flattened() {
		t.Fatal("old partition should be unflattened")
	}
	newSplits, err := tbl.Splits([]string{"new"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dwrf.OpenReader(w.Cluster(), newSplits[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Flattened() {
		t.Fatal("new partition should be flattened")
	}
}

func TestCachedReaderSharedAcrossSplits(t *testing.T) {
	wh := newWarehouse(t)
	tbl, err := wh.CreateTable("rm", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "p1", 64, 9)
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := wh.CachedReader(splits[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := wh.CachedReader(splits[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("CachedReader returned distinct instances for one path")
	}
	rows := 0
	for _, sp := range splits {
		b, _, err := wh.ReadSplitBatchCached(sp, nil, dwrf.ReadOptions{Flatmap: true})
		if err != nil {
			t.Fatal(err)
		}
		rows += b.Rows
	}
	if rows != 64 {
		t.Fatalf("cached split reads returned %d rows, want 64", rows)
	}
}

// TestCachedReaderOpensOnce pins the two ends of reader residency by
// the storage reads they cost: callers racing for an unopened file share
// one open, and a warehouse told to keep nothing resident opens the file
// on every call.
func TestCachedReaderOpensOnce(t *testing.T) {
	wh := newWarehouse(t)
	tbl, err := wh.CreateTable("rm", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillPartition(t, tbl, "p1", 64, 9)
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := splits[0].Path
	ops := &wh.Cluster().ReadOps

	wh.SetReaderCacheLimit(-1)
	before := ops.Value()
	if _, err := wh.CachedReader(path); err != nil {
		t.Fatal(err)
	}
	oneOpen := ops.Value() - before
	if _, err := wh.CachedReader(path); err != nil {
		t.Fatal(err)
	}
	if got := ops.Value() - before; oneOpen == 0 || got != 2*oneOpen {
		t.Fatalf("two calls with nothing resident cost %d reads, want 2 x %d", got, oneOpen)
	}

	wh.SetReaderCacheLimit(0)
	before = ops.Value()
	readers := make([]*dwrf.Reader, 8)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readers[i], _ = wh.CachedReader(path)
		}()
	}
	wg.Wait()
	if got := ops.Value() - before; got != oneOpen {
		t.Fatalf("%d racing callers cost %d reads, want one open's %d", len(readers), got, oneOpen)
	}
	for _, r := range readers {
		if r == nil || r != readers[0] {
			t.Fatal("racing callers did not share one reader")
		}
	}
}

func TestUnboundedTableLifecycle(t *testing.T) {
	wh := newWarehouse(t)
	tbl, err := wh.CreateUnboundedTable("stream", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Unbounded() || !tbl.StreamOpen() {
		t.Fatal("unbounded table should start with an open stream")
	}
	g0 := tbl.Generation()
	fillPartition(t, tbl, "p1", 32, 1)
	if g := tbl.Generation(); g != g0+1 {
		t.Fatalf("Generation after seal = %d, want %d", g, g0+1)
	}
	fillPartition(t, tbl, "p2", 32, 2)
	splits, err := tbl.PartitionSplits("p2")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("PartitionSplits(p2) = %d splits, want 2", len(splits))
	}
	if err := tbl.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CloseStream(); err != nil { // idempotent
		t.Fatal(err)
	}
	if tbl.StreamOpen() {
		t.Fatal("StreamOpen after CloseStream")
	}
	if g := tbl.Generation(); g != g0+3 {
		t.Fatalf("Generation after close = %d, want %d", g, g0+3)
	}
	if _, err := tbl.NewPartition("p3"); err == nil {
		t.Fatal("NewPartition accepted after CloseStream")
	}
	// Static tables are never stream-open and reject CloseStream.
	st, err := wh.CreateTable("static", testSchema(t), dwrf.WriterOptions{Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.StreamOpen() || st.Unbounded() {
		t.Fatal("static table reports streaming")
	}
	if err := st.CloseStream(); err == nil {
		t.Fatal("CloseStream accepted on static table")
	}
}

func TestPartitionEventTimeBounds(t *testing.T) {
	wh := newWarehouse(t)
	tbl, err := wh.CreateTable("evt", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 8})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := tbl.NewPartition("p1")
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range []int64{500, 0, 200, 900} { // zero = unknown, ignored
		s := schema.NewSample()
		s.DenseFeatures[1] = float32(i)
		if err := pw.WriteRow(s); err != nil {
			t.Fatal(err)
		}
		pw.NoteEventTime(ns)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := tbl.Partition("p1")
	if err != nil {
		t.Fatal(err)
	}
	if p.MinEventTime != 200 || p.MaxEventTime != 900 {
		t.Fatalf("event-time bounds = [%d, %d], want [200, 900]", p.MinEventTime, p.MaxEventTime)
	}
	splits, err := tbl.PartitionSplits("p1")
	if err != nil {
		t.Fatal(err)
	}
	if splits[0].MinEventTime != 200 || splits[0].MaxEventTime != 900 {
		t.Fatalf("split event-time bounds = [%d, %d], want [200, 900]", splits[0].MinEventTime, splits[0].MaxEventTime)
	}
}

func TestNewPartitionReclaimsOrphanedFile(t *testing.T) {
	wh := newWarehouse(t)
	tbl, err := wh.CreateTable("orphan", testSchema(t), dwrf.WriterOptions{Flatten: true})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed before Close: bytes on storage, no
	// visible partition.
	pw, err := tbl.NewPartition("p1")
	if err != nil {
		t.Fatal(err)
	}
	s := schema.NewSample()
	s.DenseFeatures[1] = 1
	if err := pw.WriteRow(s); err != nil {
		t.Fatal(err)
	}
	_ = pw // never closed
	// A retry of the same key must succeed and publish cleanly.
	fillPartition(t, tbl, "p1", 8, 3)
	p, err := tbl.Partition("p1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 8 {
		t.Fatalf("retried partition rows = %d, want 8", p.Rows)
	}
}
