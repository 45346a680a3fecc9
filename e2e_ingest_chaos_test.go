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
	"dsi/internal/tectonic/faults"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// TestEndToEndStreamingIngestChaos is the write-path acceptance storm:
// the full streaming loop of TestEndToEndStreamingIngestChecksums —
// serving simulator → Scribe → LogDevice → ETL → DWRF partitions →
// two live-tailing tenant sessions — run while BOTH storage planes are
// in a seeded storm:
//
//   - LogDevice tears acks off ~35% of appends, so every Scribe flush
//     leans on write tokens to retry without duplicating a record;
//   - every Tectonic node throws transient write failures, one node
//     tears acks, one node is down hard (placement must route new
//     chunks away from it), and partition seals fail half the time;
//   - reads are flaky cluster-wide at the same time, so the read path's
//     retry machinery is working the same files the write path is
//     repairing.
//
// Acceptance is exact: each tenant's order-independent content checksum
// must equal a same-seed replay of the generator — zero records lost,
// zero duplicated — and the write-side recovery counters must show the
// machinery actually carried the load.
func TestEndToEndStreamingIngestChaos(t *testing.T) {
	const (
		model         = "rm-chaos"
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

	// Ground truth: same-seed replay (zero drop rate keeps the draw
	// sequences identical).
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

	// Ingestion plane under torn acks: ~35% of LogDevice appends land
	// but lose their acknowledgement, so Scribe's requeue must retry
	// every one of them through the token ledger.
	store := logdevice.NewStore()
	store.SetWriteFaults(faults.NewSchedule(seed).TornWrites(0, 0, 0, 0.35))
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("web-1", bus)
	sim := datagen.NewServingSimulator(model, datagen.NewGenerator(spec, seed), daemon)
	sim.Now = func() int64 { return time.Now().UnixNano() }

	// Warehouse plane: four nodes, duplicate replication, and a combined
	// read+write storm. Later windows win, so the special roles override
	// the cluster-wide write flake.
	cluster, err := tectonic.NewCluster(tectonic.Options{
		Nodes: 4, Replication: 2,
		Retry: tectonic.RetryPolicy{MaxAttempts: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule(seed)
	for n := 0; n < 4; n++ {
		sched.FailWrites(n, 0, 0, 0.2)
	}
	sched.TornWrites(1, 0, 0, 0.3)
	sched.Down(3, 0, 0)
	sched.FailSeals(0, 0, 0.5)
	// Read-shaped flake on the surviving nodes, active simultaneously.
	for n := 0; n < 3; n++ {
		sched.Flaky(n, 0, 0, 0.2)
	}
	cluster.SetFaultSchedule(sched)

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

	// Under the torn storm every Flush delivers only a prefix before
	// requeueing, so the producer drains explicitly after each chunk —
	// each drain is dozens of retried flushes riding the token ledger.
	if err := sim.ServeRequests(firstChunk); err != nil {
		t.Fatal(err)
	}
	if err := daemon.DrainFlush(20 * time.Second); err != nil {
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

	type tenant struct {
		name       string
		master     *dpp.Master
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

	for served := firstChunk; served < totalRequests; served += chunk {
		if err := sim.ServeRequests(chunk); err != nil {
			t.Fatal(err)
		}
		if err := daemon.DrainFlush(20 * time.Second); err != nil {
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

	// Exact delivery: both tenants hold precisely the generated content.
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
		if tn.got.Rows != totalRequests {
			t.Fatalf("%s consumed %d rows, want %d", tn.name, tn.got.Rows, totalRequests)
		}
		delete(tn.got.Sparse, hashedOut)
		delete(tn.got.Counts, hashedOut)
		if !tn.got.Equal(want) {
			t.Fatalf("%s content checksums diverge under the write storm:\n got %+v\nwant %+v", tn.name, tn.got, want)
		}
	}

	// The producer's buffer absorbed the storm and the drain delivered
	// every message.
	if daemon.PendingCount() != 0 {
		t.Fatalf("%d messages stranded in the daemon after drain", daemon.PendingCount())
	}

	// The write-side recovery machinery visibly carried the load.
	ld := store.WriteFaultCounters()
	if ld.TornAcks == 0 || ld.DedupHits == 0 {
		t.Fatalf("LogDevice torn-ack machinery idle under a 35%% torn storm: %+v", ld)
	}
	fc := cluster.FaultCounters()
	if fc.AppendRetries == 0 {
		t.Fatalf("no append retries under a cluster-wide write flake: %+v", fc)
	}
	if fc.PlacementAvoids == 0 {
		t.Fatalf("placement never routed around the down node: %+v", fc)
	}
	if fc.SealRetries == 0 {
		t.Fatalf("no seal retries with seals failing at p=0.5: %+v", fc)
	}
	ws := pipeline.WriterStats()
	if ws.Retries == 0 {
		t.Fatalf("pipeline writer stats missed the append retries: %+v", ws)
	}
	t.Logf("recovery: logdevice=%+v cluster={appendRetries:%d dedups:%d tornAcks:%d tornRepairs:%d sealRetries:%d placementAvoids:%d} writer=%+v reproduced=%d",
		ld, fc.AppendRetries, fc.AppendDedups, fc.TornAcks, fc.TornRepairs, fc.SealRetries, fc.PlacementAvoids, ws, pipeline.PartitionsReproduced.Value())
}
