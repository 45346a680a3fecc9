package etl

import (
	"fmt"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/warehouse"
)

// Regression (seed bug): a corrupt log record used to return an error
// without advancing the cursor, so every subsequent Step re-read the
// same poison record and the joiner wedged forever.
func TestJoinerSkipsPoisonRecords(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)

	publishFeature(t, bus, "m", 1)
	if _, err := bus.Publish(scribe.Message{Category: datagen.FeatureCategory("m"), Payload: []byte("not a gob")}); err != nil {
		t.Fatal(err)
	}
	publishFeature(t, bus, "m", 2)
	if _, err := bus.Publish(scribe.Message{Category: datagen.EventCategory("m"), Payload: []byte("garbage")}); err != nil {
		t.Fatal(err)
	}
	publishEvent(t, bus, "m", 1, true)
	publishEvent(t, bus, "m", 2, false)

	if _, err := j.Step(100); err != nil {
		t.Fatalf("Step errored on poison record: %v", err)
	}
	n, err := j.Step(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cursor did not advance past poison record: second step consumed %d", n)
	}
	if j.Poisoned.Value() != 2 {
		t.Fatalf("Poisoned = %d, want 2", j.Poisoned.Value())
	}
	if j.Joined.Value() != 2 || len(sink.samples) != 2 {
		t.Fatalf("valid records around the poison were lost: joined=%d emitted=%d", j.Joined.Value(), len(sink.samples))
	}
}

// Regression (seed bug): a duplicate RequestID silently overwrote the
// earlier pendingEntry, dropping that sample with no signal. The
// displaced entry must be emitted as an unobserved negative and counted.
func TestJoinerDuplicateFeatureDisplaced(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)

	publish := func(id int64, dense float32) {
		fl := &datagen.FeatureLog{
			RequestID: id,
			Dense:     map[schema.FeatureID]float32{1: dense},
		}
		payload, err := datagen.EncodeFeatureLog(fl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Publish(scribe.Message{Category: datagen.FeatureCategory("m"), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	publish(1, 10) // displaced by the duplicate below
	publish(1, 20)
	publishEvent(t, bus, "m", 1, true)

	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if j.DuplicateFeatures.Value() != 1 {
		t.Fatalf("DuplicateFeatures = %d, want 1", j.DuplicateFeatures.Value())
	}
	if len(sink.samples) != 2 {
		t.Fatalf("emitted %d samples, want 2 (displaced negative + joined positive)", len(sink.samples))
	}
	if sink.samples[0].DenseFeatures[1] != 10 || sink.samples[0].Label != 0 {
		t.Fatalf("displaced entry = dense %v label %v, want dense 10 label 0",
			sink.samples[0].DenseFeatures[1], sink.samples[0].Label)
	}
	if sink.samples[1].DenseFeatures[1] != 20 || sink.samples[1].Label != 1 {
		t.Fatalf("joined entry = dense %v label %v, want dense 20 label 1",
			sink.samples[1].DenseFeatures[1], sink.samples[1].Label)
	}
	// The stale FIFO slot left behind by the displacement must not emit
	// anything extra on flush.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.samples) != 2 {
		t.Fatalf("stale order slot re-emitted: %d samples", len(sink.samples))
	}
}

func streamTestTable(t *testing.T) (*warehouse.Warehouse, *warehouse.Table) {
	t.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20})
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
	return wh, tbl
}

func TestStreamingCursorStoreRecover(t *testing.T) {
	store := logdevice.NewStore()
	cs, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err := cs.Recover()
	if err != nil || committed != nil || len(uncommitted) != 0 {
		t.Fatalf("empty recover = %v, %v, %v", committed, uncommitted, err)
	}

	if err := cs.Intent("part-000000", []byte("s0")); err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err = cs.Recover()
	if err != nil || committed != nil || len(uncommitted) != 1 || uncommitted[0].Key != "part-000000" {
		t.Fatalf("recover after intent = %v, %v, %v", committed, uncommitted, err)
	}

	if err := cs.Commit("part-000000"); err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err = cs.Recover()
	if err != nil || committed == nil || committed.Key != "part-000000" || string(committed.State) != "s0" || len(uncommitted) != 0 {
		t.Fatalf("recover after commit = %+v, %v, %v", committed, uncommitted, err)
	}

	if err := cs.Intent("part-000001", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	// A second store over the same stream (process restart) sees the same
	// picture.
	cs2, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err = cs2.Recover()
	if err != nil || committed == nil || committed.Key != "part-000000" {
		t.Fatalf("restarted recover committed = %+v, %v", committed, err)
	}
	if len(uncommitted) != 1 || uncommitted[0].Key != "part-000001" || string(uncommitted[0].State) != "s1" {
		t.Fatalf("restarted recover uncommitted = %+v", uncommitted)
	}
	// Committing through the restarted store trims the log.
	if err := cs2.Commit("part-000001"); err != nil {
		t.Fatal(err)
	}
	committed, uncommitted, err = cs2.Recover()
	if err != nil || committed == nil || committed.Key != "part-000001" || len(uncommitted) != 0 {
		t.Fatalf("recover after second commit = %+v, %v, %v", committed, uncommitted, err)
	}
}

// publishRange emits features (with event times) and their outcome
// events for ids in [lo, hi]; engagement is id%3 == 0.
func publishRange(t *testing.T, bus *scribe.Bus, model string, lo, hi int64) {
	t.Helper()
	for id := lo; id <= hi; id++ {
		fl := &datagen.FeatureLog{
			RequestID: id,
			Dense:     map[schema.FeatureID]float32{1: float32(id)},
			Sparse:    map[schema.FeatureID][]int64{2: {id, id + 1}},
			EventTime: id * 1000,
		}
		payload, err := datagen.EncodeFeatureLog(fl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Publish(scribe.Message{Category: datagen.FeatureCategory(model), Payload: payload}); err != nil {
			t.Fatal(err)
		}
		publishEvent(t, bus, model, id, id%3 == 0)
	}
}

// readAllIDs scans every visible partition and returns label by id,
// failing on duplicate ids.
func readAllIDs(t *testing.T, wh *warehouse.Warehouse, tbl *warehouse.Table) map[int64]float32 {
	t.Helper()
	got := make(map[int64]float32)
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		rows, _, err := wh.ReadSplit(sp, nil, dwrf.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			id := int64(r.DenseFeatures[1])
			if _, dup := got[id]; dup {
				t.Fatalf("id %d emitted twice", id)
			}
			got[id] = r.Label
		}
	}
	return got
}

func checkExactlyOnce(t *testing.T, got map[int64]float32, hi int64) {
	t.Helper()
	if int64(len(got)) != hi {
		t.Fatalf("table holds %d samples, want %d", len(got), hi)
	}
	for id := int64(1); id <= hi; id++ {
		label, ok := got[id]
		if !ok {
			t.Fatalf("id %d lost", id)
		}
		want := float32(0)
		if id%3 == 0 {
			want = 1
		}
		if label != want {
			t.Fatalf("id %d label = %v, want %v", id, label, want)
		}
	}
}

func TestStreamingPipelineSealsAndFinalizes(t *testing.T) {
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	wh, tbl := streamTestTable(t)
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
	if tbl.StreamOpen() {
		t.Fatal("table stream still open after producer close")
	}
	parts := tbl.Partitions()
	if len(parts) < 3 {
		t.Fatalf("sealed %d partitions, want >= 3", len(parts))
	}
	for _, part := range parts {
		if part.MinEventTime <= 0 || part.MaxEventTime < part.MinEventTime {
			t.Fatalf("partition %s event-time bounds = [%d, %d]", part.Key, part.MinEventTime, part.MaxEventTime)
		}
	}
	checkExactlyOnce(t, readAllIDs(t, wh, tbl), 100)
	if p.PartitionsSealed.Value() != int64(len(parts)) {
		t.Fatalf("PartitionsSealed = %d, partitions = %d", p.PartitionsSealed.Value(), len(parts))
	}
}

// The central durability property: killing the pipeline mid-stream and
// restarting from the durable cursors neither re-emits nor loses a
// single sample.
func TestStreamingPipelineCrashRestartResume(t *testing.T) {
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	wh, tbl := streamTestTable(t)
	cs, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}

	publishRange(t, bus, "m", 1, 150)
	p1 := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs, PartitionRows: 32}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- p1.Run(stop) }()
	deadline := time.After(10 * time.Second)
	for sealed := tbl.Changed(); len(tbl.Partitions()) < 2; sealed = tbl.Changed() {
		select {
		case <-sealed:
		case <-deadline:
			t.Fatal("pipeline sealed no partitions before deadline")
		}
	}
	close(stop) // crash: the open partition is abandoned unsealed
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// More traffic lands while the pipeline is down.
	publishRange(t, bus, "m", 151, 300)
	if err := bus.CloseCategory(datagen.FeatureCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := bus.CloseCategory(datagen.EventCategory("m")); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh joiner and pipeline, same cursor stream and table.
	cs2, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p2 := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs2, PartitionRows: 32}
	if err := p2.Run(nil); err != nil {
		t.Fatal(err)
	}
	if tbl.StreamOpen() {
		t.Fatal("stream still open after resumed run")
	}
	checkExactlyOnce(t, readAllIDs(t, wh, tbl), 300)
}

// A crash that falls between sealing a partition and committing its
// intent must adopt the intent on recovery instead of re-producing the
// partition (which would double-emit every row in it).
func TestStreamingPipelineRecoversBetweenSealAndCommit(t *testing.T) {
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	wh, tbl := streamTestTable(t)
	cs, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}

	publishRange(t, bus, "m", 1, 40)
	// Manually run the first partition's fill + intent + seal, then
	// "crash" before commit.
	j := NewJoiner("m", bus, nil)
	pw, err := tbl.NewPartition("part-000000")
	if err != nil {
		t.Fatal(err)
	}
	sink := &partitionSink{pw: pw}
	j.sink = sink
	for sink.rows < 32 {
		n, err := j.Step(16)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	state, err := j.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Intent("part-000000", state); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil { // sealed and visible...
		t.Fatal(err)
	}
	// ...but the commit never happens: crash here.

	if err := bus.CloseCategory(datagen.FeatureCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := bus.CloseCategory(datagen.EventCategory("m")); err != nil {
		t.Fatal(err)
	}
	cs2, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs2, PartitionRows: 32}
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, readAllIDs(t, wh, tbl), 40)
	if fmt.Sprintf("%d", len(tbl.Partitions())) == "1" {
		t.Fatal("resumed run produced no continuation partition")
	}
}

// An idle pipeline waits for its input, it does not poll it: between two
// appends it makes no Step at all, and it also starts before either
// category exists. (On the 200 µs idle timer this replaced it stepped
// ~45 times in the window.) The test counts calls; the only thing it
// reads a clock for is how long to watch nothing happen.
func TestStreamingPipelineIdleMakesNoStep(t *testing.T) {
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	_, tbl := streamTestTable(t)
	cs, err := NewCursorStore(store, "etl/m/cursors")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Joiner: NewJoiner("m", bus, nil), Table: tbl, Cursors: cs, PartitionRows: 32}
	done := make(chan error, 1)
	go func() { done <- p.Run(nil) }()

	joined := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for p.Joiner.Joined.Value() < n {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline joined %d of %d records before deadline", p.Joiner.Joined.Value(), n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	// The categories come into being with the first append, after the
	// pipeline started waiting for them.
	publishRange(t, bus, "m", 1, 1)
	joined(1)

	const window = 50 * time.Millisecond
	before := p.Joiner.Steps.Value()
	time.Sleep(window)
	// At most the one empty Step that follows the Step that joined.
	if n := p.Joiner.Steps.Value() - before; n > 1 {
		t.Fatalf("idle pipeline made %d Steps in %v with nothing appended, want at most 1", n, window)
	}

	// The next append wakes it.
	publishRange(t, bus, "m", 2, 2)
	joined(2)

	if err := bus.CloseCategory(datagen.FeatureCategory("m")); err != nil {
		t.Fatal(err)
	}
	if err := bus.CloseCategory(datagen.EventCategory("m")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closing both categories did not end the idle pipeline")
	}
}
