package trainer

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// buildSession creates a small live DPP session for trainer integration
// tests.
func buildSession(t *testing.T, workers int) (*dpp.Client, []*dpp.Worker) {
	t.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	ts := schema.NewTableSchema("t")
	if err := ts.AddColumn(schema.Column{ID: 1, Kind: schema.Dense, Name: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddColumn(schema.Column{ID: 2, Kind: schema.Sparse, Name: "s"}); err != nil {
		t.Fatal(err)
	}
	tbl, err := wh.CreateTable("t", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pw, err := tbl.NewPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		s := schema.NewSample()
		s.DenseFeatures[1] = rng.Float32()
		s.SparseFeatures[2] = []int64{rng.Int63n(100), rng.Int63n(100)}
		if err := pw.WriteRow(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	spec := dpp.SessionSpec{
		Table:     "t",
		Features:  []schema.FeatureID{1, 2},
		Ops:       []transforms.Op{&transforms.SigridHash{In: 2, Out: 100, Salt: 1, MaxValue: 1 << 10}},
		DenseOut:  []schema.FeatureID{1},
		SparseOut: []schema.FeatureID{100},
		BatchSize: 8,
	}
	m, err := dpp.NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	var ws []*dpp.Worker
	var apis []dpp.WorkerAPI
	for i := 0; i < workers; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("w%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		apis = append(apis, dpp.LocalWorkerAPI(w))
	}
	client, err := dpp.NewClient(apis, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return client, ws
}

func TestTrainerConsumesAllData(t *testing.T) {
	client, workers := buildSession(t, 2)
	for _, w := range workers {
		go func(w *dpp.Worker) {
			if err := w.Run(nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	tr := NewTrainer(client)
	stall, err := tr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RowsConsumed != 128 {
		t.Fatalf("consumed %d rows, want 128", tr.RowsConsumed)
	}
	if tr.BytesLoaded <= 0 {
		t.Fatal("no bytes loaded")
	}
	if stall < 0 || stall > 1 {
		t.Fatalf("stall fraction = %v", stall)
	}
}

// TestTrainerObservesStallsWithSlowSupply holds the one worker back for
// hold before it runs: the trainer's first Next waits at least that long,
// and the trainer must count the wait as stall time. Only lower bounds
// are checked, so the test does not depend on how fast supply is after.
func TestTrainerObservesStallsWithSlowSupply(t *testing.T) {
	const hold = 20 * time.Millisecond
	client, workers := buildSession(t, 1)
	tr := NewTrainer(client)
	go func() {
		time.Sleep(hold)
		if err := workers[0].Run(nil); err != nil {
			t.Error(err)
		}
	}()
	stall, err := tr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.StallTime < hold {
		t.Fatalf("StallTime = %v, want >= %v", tr.StallTime, hold)
	}
	if !(stall > 0 && stall <= 1) {
		t.Fatalf("stall fraction = %v, want in (0, 1]", stall)
	}
	if tr.RowsConsumed != 128 {
		t.Fatalf("consumed %d rows, want 128", tr.RowsConsumed)
	}
}

func TestTrainerMaxSteps(t *testing.T) {
	client, workers := buildSession(t, 1)
	go func() {
		if err := workers[0].Run(nil); err != nil {
			t.Error(err)
		}
	}()
	tr := NewTrainer(client)
	if _, err := tr.Run(3); err != nil {
		t.Fatal(err)
	}
	if tr.StepsDone != 3 {
		t.Fatalf("StepsDone = %d, want 3", tr.StepsDone)
	}
}
