package dpp

import (
	"testing"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/warehouse"
)

// buildUnboundedFixture creates an unbounded table and a session spec
// tailing it. Partitions are sealed by the caller via sealPartitionAt.
func buildUnboundedFixture(t testing.TB, rowsPerStripe int) (*warehouse.Warehouse, *warehouse.Table, SessionSpec) {
	t.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, spec := addUnboundedTable(t, wh, rowsPerStripe)
	return wh, tbl, spec
}

// addUnboundedTable adds the unbounded table "live" to wh and returns it
// with a session spec tailing it.
func addUnboundedTable(t testing.TB, wh *warehouse.Warehouse, rowsPerStripe int) (*warehouse.Table, SessionSpec) {
	t.Helper()
	ts := schema.NewTableSchema("live")
	if err := ts.AddColumn(schema.Column{ID: 1, Kind: schema.Dense, Name: "d1"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddColumn(schema.Column{ID: 2, Kind: schema.Sparse, Name: "s2"}); err != nil {
		t.Fatal(err)
	}
	tbl, err := wh.CreateUnboundedTable("live", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: rowsPerStripe})
	if err != nil {
		t.Fatal(err)
	}
	spec := SessionSpec{
		Table:     "live",
		Unbounded: true,
		Features:  []schema.FeatureID{1, 2},
		DenseOut:  []schema.FeatureID{1},
		SparseOut: []schema.FeatureID{2},
		BatchSize: 8,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	return tbl, spec
}

// sealPartitionAt writes rows rows into a new partition of tbl, stamping
// each with eventNS as its event time, and seals it.
func sealPartitionAt(t testing.TB, tbl *warehouse.Table, key string, rows int, eventNS int64) {
	t.Helper()
	pw, err := tbl.NewPartition(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		s := schema.NewSample()
		s.Label = float32(i % 2)
		s.DenseFeatures[1] = float32(i)
		s.SparseFeatures[2] = []int64{int64(i)}
		if err := pw.WriteRow(s); err != nil {
			t.Fatal(err)
		}
		pw.NoteEventTime(eventNS)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}

// drainSplits leases and completes every currently pending split through
// worker w, returning how many were completed.
func drainSplits(t testing.TB, m *Master, workerID string) int {
	t.Helper()
	n := 0
	for {
		_, id, ok, _, err := m.NextSplit(workerID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		if err := m.CompleteSplit(workerID, id); err != nil {
			t.Fatal(err)
		}
		n++
	}
}

func TestUnboundedMasterDiscoversSealedPartitions(t *testing.T) {
	wh, tbl, spec := buildUnboundedFixture(t, 16)
	sealPartitionAt(t, tbl, "part-000000", 16, 0)

	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SplitCount(); got != 1 {
		t.Fatalf("initial SplitCount = %d, want 1", got)
	}
	if _, err := m.RegisterWorker("w1", "mem://w1"); err != nil {
		t.Fatal(err)
	}
	if n := drainSplits(t, m, "w1"); n != 1 {
		t.Fatalf("drained %d splits, want 1", n)
	}

	// The ETL seals two more partitions mid-session; the next poll from
	// an idle worker must discover them without any restart.
	sealPartitionAt(t, tbl, "part-000001", 32, 0) // 2 stripes
	sealPartitionAt(t, tbl, "part-000002", 16, 0)
	if n := drainSplits(t, m, "w1"); n != 3 {
		t.Fatalf("drained %d splits after live seals, want 3", n)
	}
	parts := m.DiscoveredPartitions()
	if len(parts) != 3 {
		t.Fatalf("DiscoveredPartitions = %v, want 3 keys", parts)
	}
	if parts[0] != "part-000000" || parts[2] != "part-000002" {
		t.Fatalf("discovery order wrong: %v", parts)
	}
}

func TestUnboundedSessionEndsOnStreamClose(t *testing.T) {
	wh, tbl, spec := buildUnboundedFixture(t, 16)
	sealPartitionAt(t, tbl, "part-000000", 16, 0)

	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", "mem://w1"); err != nil {
		t.Fatal(err)
	}
	drainSplits(t, m, "w1")

	// All known work is complete, but the producer may still append:
	// the session must NOT report done while the stream is open.
	if done, err := m.Done(); err != nil || done {
		t.Fatalf("done=%v err=%v with stream open", done, err)
	}

	// Seal one more partition and close the stream without any
	// NextSplit poll in between: Done itself must discover the late
	// partition (the post-close refresh) and hold the session open
	// until it completes.
	sealPartitionAt(t, tbl, "part-000001", 16, 0)
	if err := tbl.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if done, err := m.Done(); err != nil || done {
		t.Fatalf("done=%v err=%v with undelivered late partition", done, err)
	}
	if n := drainSplits(t, m, "w1"); n != 1 {
		t.Fatalf("drained %d late splits, want 1", n)
	}
	if done, err := m.Done(); err != nil || !done {
		t.Fatalf("done=%v err=%v after close and drain", done, err)
	}
}

func TestUnboundedMasterRejectsStaticTable(t *testing.T) {
	wh, spec := buildFixture(t, 16, 16)
	spec.Unbounded = true
	if _, err := NewMaster(wh, spec); err == nil {
		t.Fatal("unbounded session over static table accepted")
	}
	spec.Unbounded = false
	spec.Partitions = nil

	// And the converse validation: an unbounded spec cannot carry a
	// partition filter.
	bad := SessionSpec{Table: "t", Unbounded: true, Partitions: []string{"p1"}, Features: []schema.FeatureID{1}, BatchSize: 8}
	if err := bad.Validate(); err == nil {
		t.Fatal("unbounded spec with partition filter accepted")
	}
}

func TestUnboundedFreshnessAccounting(t *testing.T) {
	wh, tbl, spec := buildUnboundedFixture(t, 16)
	base := time.Unix(1_700_000_000, 0)
	sealPartitionAt(t, tbl, "part-000000", 16, base.UnixNano())

	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the master clock 3s after the events were logged.
	m.now = func() time.Time { return base.Add(3 * time.Second) }
	if _, err := m.RegisterWorker("w1", "mem://w1"); err != nil {
		t.Fatal(err)
	}
	drainSplits(t, m, "w1")

	samples := m.FreshnessSamples()
	if len(samples) != 1 {
		t.Fatalf("got %d freshness samples, want 1", len(samples))
	}
	if lag := samples[0].FreshLag(); lag != 3*time.Second {
		t.Fatalf("FreshLag = %v, want 3s", lag)
	}
	st := m.Freshness()
	if st.Samples != 1 || st.MaxFresh != 3*time.Second || st.MeanFresh != 3*time.Second {
		t.Fatalf("Freshness = %+v", st)
	}
	if st.MaxStale != 3*time.Second {
		t.Fatalf("MaxStale = %v, want 3s (single event time)", st.MaxStale)
	}
}

func TestUnboundedCheckpointPrefixRestore(t *testing.T) {
	wh, tbl, spec := buildUnboundedFixture(t, 16)
	sealPartitionAt(t, tbl, "part-000000", 16, 0)
	sealPartitionAt(t, tbl, "part-000001", 16, 0)

	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", "mem://w1"); err != nil {
		t.Fatal(err)
	}
	// Complete only the first split, then checkpoint.
	_, id, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatalf("NextSplit ok=%v err=%v", ok, err)
	}
	if err := m.CompleteSplit("w1", id); err != nil {
		t.Fatal(err)
	}
	ckpt, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// More partitions seal after the checkpoint; the replica taking over
	// must restore the completed prefix and queue everything newer.
	sealPartitionAt(t, tbl, "part-000002", 16, 0)
	m2, err := RestoreMaster(wh, spec, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.SplitCount(); got != 3 {
		t.Fatalf("restored SplitCount = %d, want 3", got)
	}
	done, total := m2.Progress()
	if done != 1 || total != 3 {
		t.Fatalf("restored progress %d/%d, want 1/3", done, total)
	}
	if _, err := m2.RegisterWorker("w2", "mem://w2"); err != nil {
		t.Fatal(err)
	}
	if n := drainSplits(t, m2, "w2"); n != 2 {
		t.Fatalf("restored master drained %d splits, want 2 (one already complete)", n)
	}
	if err := tbl.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if done, err := m2.Done(); err != nil || !done {
		t.Fatalf("done=%v err=%v after restore+drain+close", done, err)
	}

	// A checkpoint larger than the table (corrupt, or from another
	// session) must still be rejected.
	m3, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m3.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	freshWH, freshTbl, _ := buildUnboundedFixture(t, 16)
	sealPartitionAt(t, freshTbl, "part-000000", 16, 0)
	if _, err := RestoreMaster(freshWH, spec, big); err == nil {
		t.Fatal("oversized checkpoint accepted")
	}
}
