package main

import (
	"log"
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
	"dsi/internal/warehouse"
)

// runIngestDemo hosts the closed streaming loop in one process: a
// serving simulator logs feature/event pairs into Scribe, a continuously
// running ETL joins them and seals DWRF partitions into an unbounded
// table, and an unbounded training session — the one session of a
// Service — tails the table live over TCP loopback, its master
// discovering partitions as they seal, the session ending only when the
// producer closes the stream. Prints the session's event-time→trainer
// freshness accounting at the end.
func runIngestDemo(model string, seed int64, requests, partitionRows int, writeFaultSeed int64) {
	p, err := datagen.ProfileByName(model)
	if err != nil {
		log.Fatal(err)
	}
	spec := p.Scale(0.01, 1, requests)

	store := logdevice.NewStore()
	if writeFaultSeed != 0 {
		// A quarter of the Scribe appends land but lose their ack; the
		// daemon's tokened retries dedup them through the ledger.
		store.SetWriteFaults(faults.NewSchedule(writeFaultSeed).TornWrites(0, 0, 0, 0.25))
	}
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("dppd-serving", bus)
	sim := datagen.NewServingSimulator(model, datagen.NewGenerator(spec, seed), daemon)
	sim.Now = func() int64 { return time.Now().UnixNano() }

	opts := tectonic.Options{Nodes: 4, Replication: 2}
	if writeFaultSeed != 0 {
		opts.Retry = tectonic.RetryPolicy{MaxAttempts: 12}
	}
	cluster, err := tectonic.NewCluster(opts)
	if err != nil {
		log.Fatal(err)
	}
	if writeFaultSeed != 0 {
		const nodes = 4
		sched := faults.NewSchedule(writeFaultSeed)
		for n := 0; n < nodes; n++ {
			sched.FailWrites(n, 0, 0, 0.15)
		}
		// Two seeded picks get the heavier roles, mirroring -fault-seed.
		torn := int(uint64(writeFaultSeed) % uint64(nodes))
		down := int((uint64(writeFaultSeed) + 1) % uint64(nodes))
		sched.TornWrites(torn, 0, 0, 0.25)
		sched.Down(down, 0, 0)
		sched.FailSeals(0, 0, 0.5)
		cluster.SetFaultSchedule(sched)
		log.Printf("dppd ingest: write storm installed (seed %d): scribe torn p=0.25, all %d nodes write-flaky p=0.15, node %d torn, node %d down, seals failing p=0.5",
			writeFaultSeed, nodes, torn, down)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateUnboundedTable(model, spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 128})
	if err != nil {
		log.Fatal(err)
	}
	cursors, err := etl.NewCursorStore(store, "etl/"+model+"/cursors")
	if err != nil {
		log.Fatal(err)
	}
	pipeline := &etl.Pipeline{
		Joiner:        etl.NewJoiner(model, bus, nil),
		Table:         tbl,
		Cursors:       cursors,
		PartitionRows: partitionRows,
	}
	etlDone := make(chan error, 1)
	go func() { etlDone <- pipeline.Run(nil) }()

	// The producer streams traffic in paced chunks, then closes both
	// categories — the signal that ends the whole loop.
	producerDone := make(chan error, 1)
	go func() {
		chunk := requests / 8
		if chunk < 1 {
			chunk = 1
		}
		for served := 0; served < requests; served += chunk {
			n := chunk
			if rem := requests - served; rem < n {
				n = rem
			}
			if err := sim.ServeRequests(n); err != nil {
				producerDone <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		producerDone <- sim.Close(bus)
	}()

	session := dpp.SessionSpec{
		Table:     model,
		Unbounded: true,
		Features:  []schema.FeatureID{1, 2, schema.FeatureID(spec.DenseFeats + 1)},
		DenseOut:  []schema.FeatureID{1, 2},
		SparseOut: []schema.FeatureID{schema.FeatureID(spec.DenseFeats + 1)},
		BatchSize: 64,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	const sessionID = "ingest"
	svc := dpp.NewService(wh)
	if err := svc.CreateSession(sessionID, session); err != nil {
		log.Fatal(err)
	}
	m, err := svc.Master(sessionID)
	if err != nil {
		log.Fatal(err)
	}
	baseline := len(m.DiscoveredPartitions())
	ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stopService()
	log.Printf("dppd ingest: unbounded session on %s, %d partitions visible at start", ln.Addr(), baseline)

	// A fixed fleet of two TCP workers tails the session.
	o := newFleetLoop(svc, ln.Addr().String(), wh, 2, 2, 50*time.Millisecond, "dppd ingest")
	stopRun := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stopRun) }()

	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	client, err := dpp.NewTenantClient(rs, sessionID, dpp.SessionWorkerDialer(sessionID), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 5 * time.Millisecond

	start := time.Now()
	tr := consume(client)
	if err := <-producerDone; err != nil {
		log.Fatal(err)
	}
	if err := <-etlDone; err != nil {
		log.Fatal(err)
	}
	close(stopRun)
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}

	discovered := m.DiscoveredPartitions()
	fs := m.Freshness()
	log.Printf("dppd ingest: trained on %d rows live in %v (%d batches)",
		tr.RowsConsumed, time.Since(start).Round(time.Millisecond), tr.StepsDone)
	log.Printf("dppd ingest: %d partitions sealed by ETL, %d discovered after session start",
		len(discovered), len(discovered)-baseline)
	log.Printf("dppd ingest: freshness over %d splits: mean %v, max %v (stalest event %v)",
		fs.Samples, fs.MeanFresh.Round(time.Millisecond), fs.MaxFresh.Round(time.Millisecond), fs.MaxStale.Round(time.Millisecond))
	if writeFaultSeed != 0 {
		ld := store.WriteFaultCounters()
		fc := cluster.FaultCounters()
		ws := pipeline.WriterStats()
		log.Printf("dppd ingest: write recovery: scribe %d torn acks -> %d dedups; warehouse %d append retries, %d dedups, %d torn repairs, %d seal retries, %d placements avoided; %d partitions re-produced, %v virtual backoff",
			ld.TornAcks, ld.DedupHits,
			fc.AppendRetries, fc.AppendDedups, fc.TornRepairs, fc.SealRetries, fc.PlacementAvoids,
			pipeline.PartitionsReproduced.Value(), ws.Backoff.Round(time.Millisecond))
	}
}
