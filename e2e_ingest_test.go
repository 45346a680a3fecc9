package dsi_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// TestEndToEndStreamingIngestChecksums closes the DSI loop: a serving
// simulator streams feature/event logs into Scribe, a continuously
// running ETL pipeline joins them and seals DWRF partitions into an
// unbounded warehouse table, and two tenant training sessions tail the
// table live — their masters discovering partitions sealed after the
// sessions started. When the producer closes the stream, the ETL
// finalizes, the sessions drain and terminate cleanly, and each tenant
// must have received every produced row exactly once (order-independent
// content checksums against a same-seed replay of the generator).
// awaitPartitions blocks until tbl holds at least n sealed partitions,
// waking on the table's own announcement of each seal.
func awaitPartitions(t *testing.T, tbl *warehouse.Table, n int, within time.Duration) {
	t.Helper()
	deadline := time.After(within)
	for {
		changed := tbl.Changed()
		if len(tbl.Partitions()) >= n {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("ETL sealed %d of %d partitions within %v", len(tbl.Partitions()), n, within)
		}
	}
}

func TestEndToEndStreamingIngestChecksums(t *testing.T) {
	const (
		model         = "rm-live"
		seed          = 29
		totalRequests = 600
		firstChunk    = 200
		chunk         = 100
		partitionRows = 96
	)
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, 1, totalRequests)

	// Ground truth: replay the generator with the same seed. With a zero
	// event-drop rate the simulator consumes the identical draw sequence,
	// so sample i here is byte-for-byte what request i carried.
	denseA, denseB := schema.FeatureID(1), schema.FeatureID(2)
	sparseA := schema.FeatureID(spec.DenseFeats + 1)
	sparseB := schema.FeatureID(spec.DenseFeats + 2)
	const (
		hashedOut = schema.FeatureID(1 << 20)
		hashMax   = int64(1) << 16
	)
	want := tensor.NewContentSum()
	truth := datagen.NewGenerator(spec, seed)
	for i := 0; i < totalRequests; i++ {
		s := truth.Sample()
		want.Rows++
		// The joiner labels from the observed event: engaged iff the
		// generated label was positive.
		if s.Label > 0 {
			want.AddLabel(1)
		} else {
			want.AddLabel(0)
		}
		want.AddDense(denseA, s.DenseFeatures[denseA])
		want.AddDense(denseB, s.DenseFeatures[denseB])
		want.AddSparse(sparseA, s.SparseFeatures[sparseA])
		want.AddSparse(sparseB, s.SparseFeatures[sparseB])
	}

	// Ingestion plane: Scribe over LogDevice, serving simulator producer.
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("web-1", bus)
	sim := datagen.NewServingSimulator(model, datagen.NewGenerator(spec, seed), daemon)
	sim.Now = func() int64 { return time.Now().UnixNano() }

	// Warehouse plane: the ETL's unbounded destination table.
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateUnboundedTable("ingest", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	cursors, err := etl.NewCursorStore(store, "etl/"+model+"/cursors")
	if err != nil {
		t.Fatal(err)
	}
	pipeline := &etl.Pipeline{
		Joiner:        etl.NewJoiner(model, bus, nil),
		Table:         tbl,
		Cursors:       cursors,
		PartitionRows: partitionRows,
	}
	etlDone := make(chan error, 1)
	go func() { etlDone <- pipeline.Run(nil) }()

	// Publish the first traffic chunk and wait for the ETL to seal the
	// first partition, so the sessions open on a non-empty table.
	if err := sim.ServeRequests(firstChunk); err != nil {
		t.Fatal(err)
	}
	awaitPartitions(t, tbl, 1, 30*time.Second)

	session := dpp.SessionSpec{
		Table:     "ingest",
		Unbounded: true,
		Features:  []schema.FeatureID{denseA, denseB, sparseA, sparseB},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
		},
		DenseOut:  []schema.FeatureID{denseA, denseB},
		SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}

	// Two tenants tail the same live table through independent sessions.
	type tenant struct {
		name       string
		master     *dpp.Master
		baseline   int
		got        *tensor.ContentSum
		workerErrs chan error
	}
	tenants := make([]*tenant, 0, 2)
	for _, name := range []string{"tenant-a", "tenant-b"} {
		m, err := dpp.NewMaster(wh, session)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, &tenant{
			name:       name,
			master:     m,
			baseline:   len(m.DiscoveredPartitions()),
			got:        tensor.NewContentSum(),
			workerErrs: make(chan error, 2),
		})
	}

	var consumers sync.WaitGroup
	for _, tn := range tenants {
		var apis []dpp.WorkerAPI
		for i := 0; i < 2; i++ {
			w, err := dpp.NewWorker(fmt.Sprintf("%s-w%d", tn.name, i), tn.master, wh)
			if err != nil {
				t.Fatal(err)
			}
			apis = append(apis, dialWorker(t, w))
			consumers.Add(1)
			go func(w *dpp.Worker) {
				defer consumers.Done()
				if err := w.Run(nil); err != nil {
					tn.workerErrs <- err
				}
			}(w)
		}
		client, err := dpp.NewClient(apis, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		consumers.Add(1)
		go func(tn *tenant, client *dpp.Client) {
			defer consumers.Done()
			for {
				b, ok, err := client.Next()
				if err != nil {
					tn.workerErrs <- err
					return
				}
				if !ok {
					return
				}
				tn.got.AddBatch(b)
			}
		}(tn, client)
	}

	// The rest of the traffic lands while both sessions are live, then
	// the producer closes the stream: flush + CloseCategory on both
	// categories, the signal that eventually ends the whole loop.
	for served := firstChunk; served < totalRequests; served += chunk {
		if err := sim.ServeRequests(chunk); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sim.Close(bus); err != nil {
		t.Fatal(err)
	}

	if err := <-etlDone; err != nil {
		t.Fatal(err)
	}
	if tbl.StreamOpen() {
		t.Fatal("ETL did not close the table stream after producer close")
	}
	consumers.Wait()

	for _, tn := range tenants {
		select {
		case err := <-tn.workerErrs:
			t.Fatalf("%s: %v", tn.name, err)
		default:
		}
		done, err := tn.master.Done()
		if err != nil || !done {
			t.Fatalf("%s: done=%v err=%v after clean termination", tn.name, done, err)
		}
		// Live discovery: the master must have picked up partitions sealed
		// after the session started.
		discovered := len(tn.master.DiscoveredPartitions())
		if discovered-tn.baseline < 2 {
			t.Fatalf("%s discovered %d partitions after session start, want >= 2 (baseline %d, total %d)",
				tn.name, discovered-tn.baseline, tn.baseline, discovered)
		}
		if tn.got.Rows != totalRequests {
			t.Fatalf("%s consumed %d rows, want %d", tn.name, tn.got.Rows, totalRequests)
		}
		delete(tn.got.Sparse, hashedOut)
		delete(tn.got.Counts, hashedOut)
		if !tn.got.Equal(want) {
			t.Fatalf("%s content checksums diverge:\n got %+v\nwant %+v", tn.name, tn.got, want)
		}
		// Freshness accounting rode along: every completed split with
		// event-time bounds produced a positive lag sample.
		fs := tn.master.Freshness()
		if fs.Samples == 0 {
			t.Fatalf("%s recorded no freshness samples", tn.name)
		}
		if fs.MinFresh <= 0 || fs.MaxStale < fs.MaxFresh {
			t.Fatalf("%s freshness stats inconsistent: %+v", tn.name, fs)
		}
	}
	if joined := pipeline.Joiner.Joined.Value(); joined != totalRequests {
		t.Fatalf("joiner joined %d records, want %d", joined, totalRequests)
	}
}
