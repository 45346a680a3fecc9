package dpp

import (
	"runtime"
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
// transformed ware, is written straight into its two tagged stream
// frames. A frame and its buffer come from the pool (the step returns
// them, as a grant does), so a batch may cost at most 2 allocations; the
// split adds at most 32 more for the cache probe, its ware IDs, the
// frame writer's column selection and the frame list. No tensor batch is
// built on the way: the split allocates fewer bytes than the smallest of
// its batches would hold as tensors. Materializing each batch and then
// encoding it cost 6 + 2 per sparse output allocations a batch (65 a
// split) and its tensors' bytes.
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
	var minBatch int64
	step := func() {
		ev, err := w.evalSplit(splits[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.frames) != rows/batchSize {
			t.Fatalf("%d frames, want %d", len(ev.frames), rows/batchSize)
		}
		for i, f := range ev.frames {
			if f.split() != 1 || f.rows != batchSize {
				t.Fatalf("frame %d: split tag %d, %d rows", i, f.split(), f.rows)
			}
			if minBatch == 0 || f.size < minBatch {
				minBatch = f.size
			}
			f.free()
		}
	}
	step() // the miss that publishes the transformed ware
	const perBatch = 2
	bound := float64(rows/batchSize*perBatch + 32)
	got := testing.AllocsPerRun(20, step)
	if got > bound {
		t.Fatalf("%.0f allocations per split, want at most %.0f (%d sparse outputs)", got, bound, len(sparseOut))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	perSplit := int64(after.TotalAlloc-before.TotalAlloc) / runs
	if perSplit >= minBatch {
		t.Fatalf("a split allocates %d bytes, as much as a %d-byte tensor batch", perSplit, minBatch)
	}
	t.Logf("%.0f allocations and %d bytes per split (bounds %.0f and %d; %d sparse outputs)", got, perSplit, bound, minBatch, len(sparseOut))
}
