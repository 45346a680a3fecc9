// Trainpipeline: the full offline-to-online path for a recommendation
// model — serving-time feature/event logging through Scribe into
// LogDevice, streaming ETL into dated warehouse partitions, then a
// distributed DPP session (3 workers) feeding a trainer that measures
// data stalls, exactly the RM1-style workload the paper's intro
// motivates.
package main

import (
	"fmt"
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
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

func main() {
	profile := datagen.RM1
	spec := profile.Scale(0.008, 2, 768)
	gen := datagen.NewGenerator(spec, 42)

	// --- Offline data generation (§3.1) -----------------------------
	store := logdevice.NewStore()
	bus := scribe.NewBus(store)
	daemon := scribe.NewDaemon("web-host-1", bus)
	serving := datagen.NewServingSimulator(profile.Name, gen, daemon)
	serving.EventDropRate = 0.25

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 5, Replication: 3})
	if err != nil {
		log.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable(profile.Name, spec.BuildSchema(), dwrf.WriterOptions{
		Flatten:       true,
		RowsPerStripe: 128,
		StreamOrder:   gen.TrafficOrder(8),
	})
	if err != nil {
		log.Fatal(err)
	}

	joiner := etl.NewJoiner(profile.Name, bus, nil)
	for day := 1; day <= spec.Partitions; day++ {
		if err := serving.ServeRequests(spec.RowsPerPart); err != nil {
			log.Fatal(err)
		}
		job := &etl.PartitionJob{Joiner: joiner, Table: tbl, Key: fmt.Sprintf("2026-06-%02d", day)}
		rows, err := job.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ETL day %d: %d rows joined into a partition (%d with events, %d expired)\n",
			day, rows, joiner.Joined.Value(), joiner.Expired.Value())
	}
	fmt.Printf("warehouse: %d partitions, %d compressed bytes\n\n",
		len(tbl.Partitions()), tbl.TotalBytes())

	// --- Online preprocessing with DPP (§3.2) -----------------------
	proj := gen.Projection(7)
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		if col, ok := tbl.Schema.Column(id); ok {
			if col.Kind == schema.Dense {
				dense = append(dense, id)
			} else {
				sparse = append(sparse, id)
			}
		}
	}
	graph := transforms.StandardGraph(dense, sparse, 6, 1<<20)
	var sparseOut []schema.FeatureID
	consumed := map[schema.FeatureID]bool{}
	for _, op := range graph.Ops() {
		for _, in := range op.Inputs() {
			consumed[in] = true
		}
	}
	var denseOut []schema.FeatureID
	for _, op := range graph.Ops() {
		if consumed[op.Output()] {
			continue
		}
		switch op.(type) {
		case *transforms.Logit, *transforms.BoxCox, *transforms.Clamp, *transforms.GetLocalHour:
			denseOut = append(denseOut, op.Output())
		case *transforms.ComputeScore, *transforms.Sampling:
		default:
			sparseOut = append(sparseOut, op.Output())
		}
	}

	session := dpp.SessionSpec{
		Table:     profile.Name,
		Features:  proj.IDs(),
		Ops:       graph.Ops(),
		DenseOut:  denseOut,
		SparseOut: sparseOut,
		BatchSize: 64,
		Read:      dwrf.ReadOptions{CoalesceBytes: 128 << 10, Flatmap: true},
	}
	master, err := dpp.NewMaster(wh, session)
	if err != nil {
		log.Fatal(err)
	}
	var apis []dpp.WorkerAPI
	var workers []*dpp.Worker
	for i := 0; i < 3; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("w%d", i), master, wh)
		if err != nil {
			log.Fatal(err)
		}
		workers = append(workers, w)
		apis = append(apis, dpp.LocalWorkerAPI(w))
		go func(w *dpp.Worker) {
			if err := w.Run(nil); err != nil {
				log.Fatal(err)
			}
		}(w)
	}

	// --- Training with stall measurement (§6) -----------------------
	client, err := dpp.NewClient(apis, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	tr := trainer.NewTrainer(client)
	// A simulated GPU step: without one the trainer does nothing but
	// wait, and every moment of a run is stall.
	tr.StepTime = time.Millisecond
	stall, err := tr.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trainer: %d steps, %d rows, %.1f MB of tensors, waited %v of %v for data (stall fraction %.2f)\n",
		tr.StepsDone, tr.RowsConsumed, float64(tr.BytesLoaded)/1e6,
		tr.StallTime.Round(time.Millisecond), tr.Elapsed.Round(time.Millisecond), stall)

	var report dpp.ResourceReport
	for _, w := range workers {
		r := w.Report()
		report.FetchBusy += r.FetchBusy
		report.DecodeBusy += r.DecodeBusy
		report.TransformBusy += r.TransformBusy
		report.NICRxBytes += r.NICRxBytes
		report.NICTxBytes += r.NICTxBytes
		report.SplitsDone += r.SplitsDone
	}
	busy := float64(report.FetchBusy + report.DecodeBusy + report.TransformBusy)
	fmt.Printf("DPP fleet: %d splits; busy time fetch %.0f%% / decode %.0f%% / transform %.0f%%; RX %d B, TX %d B\n",
		report.SplitsDone,
		100*float64(report.FetchBusy)/busy, 100*float64(report.DecodeBusy)/busy, 100*float64(report.TransformBusy)/busy,
		report.NICRxBytes, report.NICTxBytes)
}
