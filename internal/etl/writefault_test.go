package etl

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/tectonic/faults"
	"dsi/internal/warehouse"
)

// rawCursorAppend writes an encoded cursor record straight into the
// stream, bypassing CursorStore's bookkeeping (and, crucially, Commit's
// trim) — the shape a crash between the commit append and its trim
// leaves behind.
func rawCursorAppend(t *testing.T, store *logdevice.Store, name string, rec cursorRecord) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(name, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// Regression (satellite): Commit trims the log in the steady state, but
// a crash after the commit append and before the trim retained settled
// records forever — every recovery re-replayed them and the log only
// ever grew. Recover must finish the interrupted trim.
func TestCursorStoreRecoverTrimsBelowCommitted(t *testing.T) {
	store := logdevice.NewStore()
	if err := store.CreateStream("cur"); err != nil {
		t.Fatal(err)
	}
	rawCursorAppend(t, store, "cur", cursorRecord{Kind: recIntent, Key: "part-000000", State: []byte("s0")}) // lsn 1
	rawCursorAppend(t, store, "cur", cursorRecord{Kind: recIntent, Key: "part-000001", State: []byte("s1")}) // lsn 2
	rawCursorAppend(t, store, "cur", cursorRecord{Kind: recCommit, Key: "part-000001"})                      // lsn 3, trim never ran

	cs, err := NewCursorStore(store, "cur")
	if err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err := cs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if committed == nil || committed.Key != "part-000001" || len(uncommitted) != 0 {
		t.Fatalf("recover = %+v, %v", committed, uncommitted)
	}
	tp, err := store.TrimPoint("cur")
	if err != nil {
		t.Fatal(err)
	}
	if tp != 1 {
		t.Fatalf("trim point after recovery = %d, want 1 (records below the committed intent trimmed)", tp)
	}
	// A second recovery over the now-trimmed log sees the same picture.
	committed, uncommitted, err = cs.Recover()
	if err != nil || committed == nil || committed.Key != "part-000001" || len(uncommitted) != 0 {
		t.Fatalf("re-recover = %+v, %v, %v", committed, uncommitted, err)
	}
}

// A torn ack on the cursor stream must not double-log the intent: the
// tokened retry resolves against LogDevice's ledger.
func TestCursorStoreIntentRidesOutTornAcks(t *testing.T) {
	store := logdevice.NewStore()
	store.SetWriteFaults(faults.NewSchedule(11).TornWrites(0, 0, 0, 1))
	cs, err := NewCursorStore(store, "cur")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Intent("part-000000", []byte("s0")); err != nil {
		t.Fatalf("intent under torn acks: %v", err)
	}
	recs, err := store.ReadFrom("cur", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("cursor log holds %d records, want exactly 1 (torn retry deduplicated)", len(recs))
	}
	if store.WriteFaultCounters().DedupHits == 0 {
		t.Fatal("torn intent retry never hit the token ledger")
	}
}

// FuzzCursorRecordDecode feeds hostile bytes through the cursor record
// codec and a full recovery: decode must reject garbage cleanly, and
// Recover must error — never panic, never adopt a garbage intent.
func FuzzCursorRecordDecode(f *testing.F) {
	seed := func(rec cursorRecord) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(cursorRecord{Kind: recIntent, Key: "part-000000", State: []byte("state")})
	seed(cursorRecord{Kind: recCommit, Key: "part-000000"})
	seed(cursorRecord{Kind: 9, Key: "x"})
	f.Add([]byte("not a gob"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		cr, err := decodeCursorRecord(payload)
		if err == nil {
			if cr.Kind != recIntent && cr.Kind != recCommit {
				t.Fatalf("decode accepted kind %d", cr.Kind)
			}
			if cr.Key == "" {
				t.Fatal("decode accepted an empty key")
			}
		}

		store := logdevice.NewStore()
		if cerr := store.CreateStream("cur"); cerr != nil {
			t.Fatal(cerr)
		}
		if _, aerr := store.Append("cur", payload); aerr != nil {
			t.Fatal(aerr)
		}
		cs, cerr := NewCursorStore(store, "cur")
		if cerr != nil {
			t.Fatal(cerr)
		}
		committed, uncommitted, rerr := cs.Recover()
		if err != nil {
			// Garbage record: recovery must surface it, not limp on.
			if rerr == nil {
				t.Fatal("Recover adopted a garbage cursor record")
			}
			return
		}
		if rerr != nil {
			t.Fatalf("Recover rejected a record decode accepted: %v", rerr)
		}
		// One lone record can never produce a committed state.
		if committed != nil {
			t.Fatalf("single record recovered as committed: %+v", committed)
		}
		if len(uncommitted) > 1 {
			t.Fatalf("single record produced %d uncommitted intents", len(uncommitted))
		}
	})
}

// faultTestTable is streamTestTable over a cluster whose write-fault
// schedule and retry budget the test controls.
func faultTestTable(t *testing.T, opts tectonic.Options) (*warehouse.Warehouse, *warehouse.Table, *tectonic.Cluster) {
	t.Helper()
	cluster, err := tectonic.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	ts := schema.NewTableSchema("m")
	if err := ts.AddColumn(schema.Column{ID: 1, Kind: schema.Dense, Name: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddColumn(schema.Column{ID: 2, Kind: schema.Sparse, Name: "s"}); err != nil {
		t.Fatal(err)
	}
	tbl, err := wh.CreateUnboundedTable("m", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	return wh, tbl, cluster
}

// The streaming pipeline under a cluster-wide tectonic write flake:
// every partition write is carried by the idempotent retry loop inside
// AppendToken, no partition needs re-producing, and not a sample is
// lost or duplicated.
func TestWriteFaultPipelineRetriesThroughWriteFlake(t *testing.T) {
	sched := faults.NewSchedule(21)
	for n := 0; n < 3; n++ {
		sched.FailWrites(n, 0, 0, 0.2)
	}
	wh, tbl, cluster := faultTestTable(t, tectonic.Options{
		Nodes: 3, Replication: 1, ChunkSize: 1 << 20,
		Retry: tectonic.RetryPolicy{MaxAttempts: 32},
	})
	cluster.SetFaultSchedule(sched)
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	cs, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs, PartitionRows: 32}

	publishRange(t, bus, "m", 1, 100)
	if err := bus.CloseCategory(datagen.FeatureCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := bus.CloseCategory(datagen.EventCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, readAllIDs(t, wh, tbl), 100)
	if p.WriterStats().Retries == 0 {
		t.Fatalf("cluster-wide write flake cost no retries: %+v", p.WriterStats())
	}
	if p.PartitionsReproduced.Value() != 0 {
		t.Fatalf("in-append retries should have carried the storm without re-produces, got %d",
			p.PartitionsReproduced.Value())
	}
}

// A partition roll whose cursor intent keeps failing is aborted, its
// orphan reclaimed, and the partition re-produced from the base
// checkpoint once the storm lifts — with every sample delivered exactly
// once.
func TestWriteFaultPartitionReproducedAfterStorm(t *testing.T) {
	wh, tbl, cluster := faultTestTable(t, tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20})
	busStore := logdevice.NewStore()
	bus := scribe.NewBus(busStore)
	// The cursor log lives on its own LogDevice, down hard for writes.
	curStore := logdevice.NewStore()
	curStore.SetWriteFaults(faults.NewSchedule(31).Down(0, 0, 0))
	cs, err := NewCursorStore(curStore, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs,
		PartitionRows: 32, writeRetryBudget: 1 << 20,
	}

	publishRange(t, bus, "m", 1, 100)
	if err := bus.CloseCategory(datagen.FeatureCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := bus.CloseCategory(datagen.EventCategory("m")); err != nil {
		t.Fatal(err)
	}

	// Lift the storm once the pipeline has aborted and re-produced the
	// first partition at least twice.
	go func() {
		for p.PartitionsReproduced.Value() < 2 {
			time.Sleep(100 * time.Microsecond)
		}
		curStore.SetWriteFaults(nil)
	}()
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, readAllIDs(t, wh, tbl), 100)
	if p.PartitionsReproduced.Value() < 2 {
		t.Fatalf("PartitionsReproduced = %d, want >= 2", p.PartitionsReproduced.Value())
	}
	// Aborted attempts must not leak orphan files: every remaining
	// warehouse file backs a visible partition.
	files := cluster.List("warehouse/m/")
	if len(files) != len(tbl.Partitions()) {
		t.Fatalf("%d backing files for %d visible partitions (orphans leaked): %v",
			len(files), len(tbl.Partitions()), files)
	}
}

// A partition still failing past the write-retry budget poisons the
// pipeline: Run fails instead of spinning forever, and nothing of the
// poisoned partition is visible.
func TestWriteFaultPoisonedPartitionFailsPipeline(t *testing.T) {
	_, tbl, _ := faultTestTable(t, tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20})
	busStore := logdevice.NewStore()
	bus := scribe.NewBus(busStore)
	curStore := logdevice.NewStore()
	curStore.SetWriteFaults(faults.NewSchedule(41).Down(0, 0, 0))
	cs, err := NewCursorStore(curStore, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs, PartitionRows: 32}

	publishRange(t, bus, "m", 1, 100)
	err = p.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Run under a permanent cursor-store outage: %v, want poisoned-partition failure", err)
	}
	if got := p.PartitionsReproduced.Value(); got != 2 {
		t.Fatalf("PartitionsReproduced = %d, want exactly the budget (2)", got)
	}
	if len(tbl.Partitions()) != 0 {
		t.Fatalf("poisoned partition became visible: %v", tbl.Partitions())
	}
}
