package dpp

import (
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// raceEnabled is set by race_test.go in -race builds, where allocation
// counts are not the program's.
var raceEnabled bool

// TestSplitMaterializesOnce pins the load step's allocations: one
// 256-row RM1 split at BatchSize 128, answered from the fleet cache's
// transformed ware, goes straight into its two tagged batches. Per
// batch that is the header, labels, dense matrix, sparse tensors with
// their pointer slice, and an offsets and an indices array per sparse
// output; the split adds at most 32 more for the cache probe, its ware
// IDs, the sorted feature lists and the column lookups (25 measured).
// Building the whole split first and cutting it into batches costs
// another batch's worth per split and fails the bound (104 measured).
func TestSplitMaterializesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows, batchSize = 256, 128
	spec := datagen.RM1.Scale(0.01, 1, rows)
	gen := datagen.NewGenerator(spec, 1)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable("rm1", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: rows})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := tbl.NewPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	for range rows {
		if err := pw.WriteRow(gen.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	proj := gen.Projection(1)
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		if col, _ := tbl.Schema.Column(id); col.Kind == schema.Dense {
			dense = append(dense, id)
		} else {
			sparse = append(sparse, id)
		}
	}
	graph := transforms.StandardGraph(dense, sparse, 4, 1<<20)
	denseOut, sparseOut, err := graph.TensorOutputs()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(wh, SessionSpec{
		Table: "rm1", Features: proj.IDs(), Ops: graph.Ops(),
		DenseOut: denseOut, SparseOut: sparseOut, BatchSize: batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	w.UseCache(ware.NewCache(64<<20), "t")
	splits, err := tbl.Splits(nil)
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %d, %v; want one", len(splits), err)
	}
	step := func() {
		ev, err := w.evalSplit(splits[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.batches) != rows/batchSize {
			t.Fatalf("%d batches, want %d", len(ev.batches), rows/batchSize)
		}
		tagBatches(0, ev.batches)
	}
	step() // the miss that publishes the transformed ware
	perBatch := 6 + 2*len(sparseOut)
	bound := float64(rows/batchSize*perBatch + 32)
	if got := testing.AllocsPerRun(20, step); got > bound {
		t.Fatalf("%.0f allocations per split, want at most %.0f (%d sparse outputs)", got, bound, len(sparseOut))
	} else {
		t.Logf("%.0f allocations per split (bound %.0f, %d sparse outputs)", got, bound, len(sparseOut))
	}
}
