package experiments

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/trainer"
	"dsi/internal/warehouse"
)

func init() {
	register("ingest", "Streaming ingestion: event-time to trainer freshness lag over a live Scribe->ETL->DWRF->session loop", runIngest)
}

// runIngest closes the DSI loop end to end and measures data freshness:
// a serving simulator streams feature/event logs into Scribe, the ETL
// joins and seals DWRF partitions into an unbounded table, and a live
// training session tails it — each completed split records the lag
// between its newest event's serving time and the moment the trainer
// consumed it. The paper reports no freshness figure (its freshness
// lever is partition retention, Table 5); the experiment's target is
// that the lag stays bounded and flat as the table grows, i.e. the
// streaming loop keeps up instead of falling progressively behind.
func runIngest() (Result, error) {
	res := Result{ID: "ingest", Title: Title("ingest")}
	const (
		model         = "rm-live"
		seed          = 41
		totalRequests = 600
		firstChunk    = 150
		chunk         = 75
		partitionRows = 64
	)
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		return res, err
	}
	spec := p.Scale(0.01, 1, totalRequests)

	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("web-1", bus)
	sim := datagen.NewServingSimulator(model, datagen.NewGenerator(spec, seed), daemon)
	sim.Now = func() int64 { return time.Now().UnixNano() }

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		return res, err
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateUnboundedTable("ingest", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		return res, err
	}
	cursors, err := etl.NewCursorStore(store, "etl/"+model+"/cursors")
	if err != nil {
		return res, err
	}
	pipeline := &etl.Pipeline{
		Joiner:        etl.NewJoiner(model, bus, nil),
		Table:         tbl,
		Cursors:       cursors,
		PartitionRows: partitionRows,
	}
	etlDone := make(chan error, 1)
	go func() { etlDone <- pipeline.Run(nil) }()

	if err := sim.ServeRequests(firstChunk); err != nil {
		return res, err
	}
	deadline := time.After(30 * time.Second)
	for {
		changed := tbl.Changed() // taken before the read, so no seal is missed
		if len(tbl.Partitions()) > 0 {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			return res, fmt.Errorf("ingest: ETL sealed no partition before deadline")
		}
	}

	session := dpp.SessionSpec{
		Table:     "ingest",
		Unbounded: true,
		Features:  []schema.FeatureID{1, 2, schema.FeatureID(spec.DenseFeats + 1)},
		DenseOut:  []schema.FeatureID{1, 2},
		SparseOut: []schema.FeatureID{schema.FeatureID(spec.DenseFeats + 1)},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	m, err := dpp.NewMaster(wh, session)
	if err != nil {
		return res, err
	}
	baseline := len(m.DiscoveredPartitions())

	var apis []dpp.WorkerAPI
	var consumers sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("ingest-w%d", i), m, wh)
		if err != nil {
			return res, err
		}
		apis = append(apis, dpp.LocalWorkerAPI(w))
		consumers.Add(1)
		go func(w *dpp.Worker) {
			defer consumers.Done()
			if err := w.Run(nil); err != nil {
				errs <- err
			}
		}(w)
	}
	client, err := dpp.NewClient(apis, 0, 0)
	if err != nil {
		return res, err
	}
	tr := trainer.NewTrainer(client)
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		if _, err := tr.Run(0); err != nil {
			errs <- err
		}
	}()

	for served := firstChunk; served < totalRequests; served += chunk {
		if err := sim.ServeRequests(chunk); err != nil {
			return res, err
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sim.Close(bus); err != nil {
		return res, err
	}
	if err := <-etlDone; err != nil {
		return res, err
	}
	consumers.Wait()
	select {
	case err := <-errs:
		return res, err
	default:
	}

	if tr.RowsConsumed != totalRequests {
		return res, fmt.Errorf("ingest: delivered %d rows, want %d (exactly-once violated)", tr.RowsConsumed, totalRequests)
	}
	samples := m.FreshnessSamples()
	if len(samples) < 4 {
		return res, fmt.Errorf("ingest: only %d freshness samples", len(samples))
	}
	// Flatness: compare the worst lag of the session's first and second
	// halves (by completion order). A loop that falls behind shows the
	// second half strictly and substantially worse.
	half := len(samples) / 2
	maxLag := func(ss []dpp.FreshnessSample) time.Duration {
		var mx time.Duration
		for _, s := range ss {
			if l := s.FreshLag(); l > mx {
				mx = l
			}
		}
		return mx
	}
	firstMax, secondMax := maxLag(samples[:half]), maxLag(samples[half:])
	st := m.Freshness()

	fmtMS := func(d time.Duration) string { return fmt.Sprintf("%.1f ms", d.Seconds()*1000) }
	res.Rows = append(res.Rows,
		Row{Label: "requests ingested", Paper: "-", Measured: fmt.Sprintf("%d", totalRequests),
			Note: "serving simulator -> Scribe feature+event logs, zero drop"},
		Row{Label: "partitions sealed", Paper: "-", Measured: fmt.Sprintf("%d", len(tbl.Partitions())),
			Note: fmt.Sprintf("ETL rolls at %d rows, seal==visible", partitionRows)},
		Row{Label: "partitions discovered live", Paper: "-", Measured: fmt.Sprintf("%d", len(m.DiscoveredPartitions())-baseline),
			Note: "sealed after session start, picked up by master polling"},
		Row{Label: "rows delivered to trainer", Paper: "-", Measured: fmt.Sprintf("%d", tr.RowsConsumed),
			Note: "exactly once across the live tail"},
		Row{Label: "freshness lag, mean", Paper: "-", Measured: fmtMS(st.MeanFresh),
			Note: "newest event in split -> trainer consumption ack"},
		Row{Label: "freshness lag, max", Paper: "-", Measured: fmtMS(st.MaxFresh),
			Note: "bounded: worst split lag over the whole session"},
		Row{Label: "freshness lag, max 1st half", Paper: "-", Measured: fmtMS(firstMax),
			Note: "completion-ordered halves"},
		Row{Label: "freshness lag, max 2nd half", Paper: "-", Measured: fmtMS(secondMax),
			Note: "flat: the loop keeps up instead of drifting behind"},
	)
	return res, nil
}
