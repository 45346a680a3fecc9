package etl

import (
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/warehouse"
)

func publishFeature(t *testing.T, bus *scribe.Bus, model string, id int64) {
	t.Helper()
	fl := &datagen.FeatureLog{
		RequestID: id,
		Dense:     map[schema.FeatureID]float32{1: float32(id)},
		Sparse:    map[schema.FeatureID][]int64{2: {id, id + 1}},
	}
	payload, err := datagen.EncodeFeatureLog(fl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Publish(scribe.Message{Category: datagen.FeatureCategory(model), Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func publishEvent(t *testing.T, bus *scribe.Bus, model string, id int64, engaged bool) {
	t.Helper()
	payload, err := datagen.EncodeEventLog(&datagen.EventLog{RequestID: id, Engaged: engaged})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Publish(scribe.Message{Category: datagen.EventCategory(model), Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

type collectSink struct{ samples []*schema.Sample }

func (c *collectSink) Emit(s *schema.Sample) error {
	c.samples = append(c.samples, s)
	return nil
}

func TestJoinerMatchesEvents(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)

	publishFeature(t, bus, "m", 1)
	publishFeature(t, bus, "m", 2)
	publishEvent(t, bus, "m", 1, true)
	publishEvent(t, bus, "m", 2, false)

	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if len(sink.samples) != 2 {
		t.Fatalf("emitted %d samples, want 2", len(sink.samples))
	}
	if sink.samples[0].Label != 1 || sink.samples[1].Label != 0 {
		t.Fatalf("labels = %v, %v", sink.samples[0].Label, sink.samples[1].Label)
	}
	if j.Joined.Value() != 2 || j.Expired.Value() != 0 {
		t.Fatalf("Joined=%d Expired=%d", j.Joined.Value(), j.Expired.Value())
	}
	if sink.samples[0].DenseFeatures[1] != 1 {
		t.Fatal("feature payload lost in join")
	}
}

func TestJoinerWindowEviction(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)
	j.window = 2

	publishFeature(t, bus, "m", 1) // never gets an event
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	for id := int64(2); id <= 4; id++ {
		publishFeature(t, bus, "m", id)
	}
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if j.Expired.Value() == 0 {
		t.Fatal("old feature log was not evicted")
	}
	if len(sink.samples) == 0 || sink.samples[0].Label != 0 {
		t.Fatal("evicted sample should be negative")
	}
}

func TestJoinerEventBeforeFeatureJoins(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)
	// Cross-category order is not guaranteed: the event lands first and
	// must wait in the window, keeping its label, until the feature log
	// catches up.
	publishEvent(t, bus, "m", 7, true)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if j.OrphanEvents.Value() != 0 {
		t.Fatalf("early event counted as orphan: %d", j.OrphanEvents.Value())
	}
	publishFeature(t, bus, "m", 7)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if j.Joined.Value() != 1 || len(sink.samples) != 1 || sink.samples[0].Label != 1 {
		t.Fatalf("early event did not join: joined=%d samples=%d", j.Joined.Value(), len(sink.samples))
	}
}

func TestJoinerOrphanEvents(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)
	j.window = 2
	publishEvent(t, bus, "m", 99, true)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	// The feature never arrives: the buffered event ages out of the
	// window like a pending feature would, without emitting a sample.
	for id := int64(1); id <= 3; id++ {
		publishFeature(t, bus, "m", id)
	}
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if j.OrphanEvents.Value() != 1 {
		t.Fatalf("OrphanEvents = %d, want 1", j.OrphanEvents.Value())
	}
	for _, s := range sink.samples {
		if s.Label != 0 {
			t.Fatal("orphan event leaked a positive label")
		}
	}
	// Flush drops any still-buffered orphan the same way.
	publishEvent(t, bus, "m", 100, true)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.OrphanEvents.Value() != 2 {
		t.Fatalf("OrphanEvents after flush = %d, want 2", j.OrphanEvents.Value())
	}
}

func TestJoinerFlush(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)
	publishFeature(t, bus, "m", 1)
	publishFeature(t, bus, "m", 2)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.samples) != 2 || j.PendingCount() != 0 {
		t.Fatalf("flush emitted %d, pending %d", len(sink.samples), j.PendingCount())
	}
}

func TestJoinerEmptyCategoriesOK(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	j := NewJoiner("never-published", bus, &collectSink{})
	n, err := j.Step(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("consumed %d from empty categories", n)
	}
}

func TestJoinerStepIsIncremental(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	sink := &collectSink{}
	j := NewJoiner("m", bus, sink)
	publishFeature(t, bus, "m", 1)
	publishEvent(t, bus, "m", 1, true)
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	// A second step with no new records consumes nothing and emits
	// nothing more.
	n, err := j.Step(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(sink.samples) != 1 {
		t.Fatalf("second step consumed %d, emitted %d", n, len(sink.samples))
	}
}

func TestTrimConsumedReleasesStorage(t *testing.T) {
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	j := NewJoiner("m", bus, &collectSink{})
	for id := int64(1); id <= 5; id++ {
		publishFeature(t, bus, "m", id)
		publishEvent(t, bus, "m", id, false)
	}
	if _, err := j.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := j.TrimConsumed(); err != nil {
		t.Fatal(err)
	}
	bytes, err := store.StoredBytes("scribe/" + datagen.FeatureCategory("m"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 0 {
		t.Fatalf("feature stream retains %d bytes after trim", bytes)
	}
}

func TestPartitionJobEndToEnd(t *testing.T) {
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
	tbl, err := wh.CreateTable("m", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: 8})
	if err != nil {
		t.Fatal(err)
	}

	bus := scribe.NewBus(logdevice.NewStore())
	for id := int64(1); id <= 20; id++ {
		publishFeature(t, bus, "m", id)
		if id%2 == 0 {
			publishEvent(t, bus, "m", id, id%4 == 0)
		}
	}

	job := &PartitionJob{Joiner: NewJoiner("m", bus, nil), Table: tbl, Key: "2026-06-11"}
	rows, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows != 20 {
		t.Fatalf("wrote %d rows, want 20", rows)
	}
	p, err := tbl.Partition("2026-06-11")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 20 {
		t.Fatalf("partition rows = %d", p.Rows)
	}
	// Read back and check labels: ids divisible by 4 are engaged.
	splits, err := tbl.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	var positives int
	for _, sp := range splits {
		rows, _, err := wh.ReadSplit(sp, nil, dwrf.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Label == 1 {
				positives++
			}
		}
	}
	if positives != 5 { // ids 4,8,12,16,20
		t.Fatalf("positives = %d, want 5", positives)
	}
}
