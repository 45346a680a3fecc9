// Quickstart: the smallest end-to-end DSI pipeline — write a feature-
// flattened dataset into the simulated Tectonic cluster, launch a DPP
// session (master + one worker), and train on the resulting tensors.
package main

import (
	"fmt"
	"log"

	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

func main() {
	// 1. Storage: a Tectonic cluster with 3x replication.
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 3})
	if err != nil {
		log.Fatal(err)
	}
	wh := warehouse.New(cluster)

	// 2. A table with one dense and one sparse feature.
	ts := schema.NewTableSchema("clicks")
	must(ts.AddColumn(schema.Column{ID: 1, Kind: schema.Dense, Name: "user_age_bucket"}))
	must(ts.AddColumn(schema.Column{ID: 2, Kind: schema.Sparse, Name: "liked_page_ids"}))
	tbl, err := wh.CreateTable("clicks", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		log.Fatal(err)
	}

	// 3. One day's partition of training samples.
	pw, err := tbl.NewPartition("2026-06-11")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		s := schema.NewSample()
		s.Label = float32(i % 2)
		s.DenseFeatures[1] = float32(i%7) / 7
		s.SparseFeatures[2] = []int64{int64(i), int64(i * 31)}
		must(pw.WriteRow(s))
	}
	must(pw.Close())

	// 4. A DPP session: project both features, hash the sparse one,
	// normalize the dense one, and emit 32-row tensor batches.
	session := dpp.SessionSpec{
		Table:    "clicks",
		Features: []schema.FeatureID{1, 2},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: 2, Out: 100, Salt: 7, MaxValue: 1 << 16},
			&transforms.Logit{In: 1, Out: 101},
		},
		DenseOut:  []schema.FeatureID{101},
		SparseOut: []schema.FeatureID{100},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	master, err := dpp.NewMaster(wh, session)
	if err != nil {
		log.Fatal(err)
	}
	worker, err := dpp.NewWorker("w0", master, wh)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := worker.Run(nil); err != nil {
			log.Fatal(err)
		}
	}()

	// 5. The trainer consumes preprocessed tensors through a client,
	// which reads the worker over a framed stream on loopback TCP.
	ln, stop, err := dpp.ServeWorker(worker, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	stream, err := dpp.DialWorkerFramed(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	client, err := dpp.NewClient([]dpp.WorkerAPI{stream}, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	tr := trainer.NewTrainer(client)
	if _, err := tr.Run(0); err != nil {
		log.Fatal(err)
	}
	rep := worker.Report()
	fmt.Printf("trained on %d rows in %d batches\n", tr.RowsConsumed, tr.StepsDone)
	fmt.Printf("worker: %d splits, %d B from storage, %d B decoded, %d B of tensors\n",
		rep.SplitsDone, rep.NICRxBytes, rep.DecodedBytes, rep.NICTxBytes)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
