package dsi_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// ---------------------------------------------------------------------
// Microbenchmarks of the hot paths underneath the experiments. The
// experiments themselves run in TestExperimentGolden and cmd/dsibench.
// ---------------------------------------------------------------------

// benchDataset builds a small reusable dataset for the micro-benches.
func benchDataset(b *testing.B, flatten bool) (*warehouse.Warehouse, *warehouse.Table, []warehouse.Split) {
	b.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	wh := warehouse.New(cluster)
	ts := schema.NewTableSchema("bench")
	for i := 1; i <= 32; i++ {
		kind := schema.Dense
		if i > 16 {
			kind = schema.Sparse
		}
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: kind, Name: fmt.Sprintf("f%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	tbl, err := wh.CreateTable("bench", ts, dwrf.WriterOptions{Flatten: flatten, RowsPerStripe: 256})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pw, err := tbl.NewPartition("p0")
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 1024; r++ {
		s := schema.NewSample()
		for i := 1; i <= 16; i++ {
			s.DenseFeatures[schema.FeatureID(i)] = rng.Float32()
		}
		for i := 17; i <= 32; i++ {
			vals := make([]int64, 8)
			for j := range vals {
				vals[j] = rng.Int63n(1 << 16)
			}
			s.SparseFeatures[schema.FeatureID(i)] = vals
		}
		if err := pw.WriteRow(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		b.Fatal(err)
	}
	splits, err := tbl.Splits(nil)
	if err != nil {
		b.Fatal(err)
	}
	return wh, tbl, splits
}

func BenchmarkDWRFWriteFlattened(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchDataset(b, true)
	}
}

func BenchmarkDWRFReadProjected(b *testing.B) {
	wh, _, splits := benchDataset(b, true)
	proj := schema.NewProjection(1, 2, 17, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range splits {
			batch, _, err := wh.ReadSplit(sp, proj, dwrf.ReadOptions{CoalesceBytes: 128 << 10})
			if err != nil {
				b.Fatal(err)
			}
			batch.Release()
		}
	}
}

func BenchmarkDWRFReadBatchFlatmap(b *testing.B) {
	wh, _, splits := benchDataset(b, true)
	proj := schema.NewProjection(1, 2, 17, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range splits {
			batch, _, err := wh.ReadSplitBatchCached(sp, proj, dwrf.ReadOptions{CoalesceBytes: 128 << 10, Flatmap: true})
			if err != nil {
				b.Fatal(err)
			}
			batch.Release()
		}
	}
}

func BenchmarkDWRFReadRegularMapBaseline(b *testing.B) {
	wh, _, splits := benchDataset(b, false)
	proj := schema.NewProjection(1, 2, 17, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range splits {
			batch, _, err := wh.ReadSplit(sp, proj, dwrf.ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			batch.Release()
		}
	}
}

// benchBatch builds an in-memory batch for transform benches: one dense
// feature and two sparse features of 16 IDs a row drawn from [0, ids).
func benchBatch(rows int, ids int64) *dwrf.Batch {
	rng := rand.New(rand.NewSource(7))
	batch := &dwrf.Batch{
		Rows:      rows,
		Labels:    make([]float32, rows),
		Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
		Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
		ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
	}
	dc := &dwrf.DenseColumn{Present: make([]bool, rows), Values: make([]float32, rows)}
	for i := range dc.Values {
		dc.Present[i] = true
		dc.Values[i] = rng.Float32()
	}
	batch.Dense[1] = dc
	sc := &dwrf.SparseColumn{Offsets: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		sc.Offsets[i] = int32(len(sc.Values))
		for j := 0; j < 16; j++ {
			sc.Values = append(sc.Values, rng.Int63n(ids))
		}
	}
	sc.Offsets[rows] = int32(len(sc.Values))
	batch.Sparse[2] = sc
	batch.Sparse[3] = sc
	return batch
}

func benchOp(b *testing.B, op transforms.Op) {
	b.Helper()
	batch := benchBatch(512, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformSigridHash(b *testing.B) {
	benchOp(b, &transforms.SigridHash{In: 2, Out: 100, Salt: 1, MaxValue: 1 << 20})
}

func BenchmarkTransformBucketize(b *testing.B) {
	benchOp(b, &transforms.Bucketize{In: 1, Out: 100, Borders: []float32{0.25, 0.5, 0.75}})
}

func BenchmarkTransformCartesian(b *testing.B) {
	benchOp(b, &transforms.Cartesian{A: 2, B: 3, Out: 100, MaxOutput: 16})
}

func BenchmarkTransformNGram(b *testing.B) {
	benchOp(b, &transforms.NGram{In: 2, Out: 100, N: 3})
}

func BenchmarkTransformFirstX(b *testing.B) {
	benchOp(b, &transforms.FirstX{In: 2, Out: 100, X: 8})
}

func BenchmarkTransformLogit(b *testing.B) {
	benchOp(b, &transforms.Logit{In: 1, Out: 100})
}

// arenaBatchFrom copies a template batch into an arena-owned one with
// distinct columns (arena batches must not alias), so compiled-plan
// benches run the worker's real recycle loop: outputs published into
// the batch are reclaimed by the next run's publish.
func arenaBatchFrom(arena *dwrf.Arena, template *dwrf.Batch) *dwrf.Batch {
	out := arena.NewBatch(template.Rows)
	out.Labels = arena.Labels(len(template.Labels))
	copy(out.Labels, template.Labels)
	for id, c := range template.Dense {
		nc := arena.Dense(template.Rows)
		copy(nc.Present, c.Present)
		copy(nc.Values, c.Values)
		out.Dense[id] = nc
	}
	for id, c := range template.Sparse {
		nc := arena.Sparse(template.Rows)
		copy(nc.Offsets, c.Offsets)
		nc.Values = append(nc.Values, c.Values...)
		nc.Dict = append(nc.Dict, c.Dict...)
		out.Sparse[id] = nc
	}
	return out
}

// dictEncoded rewrites b's sparse columns into the dictionary-indexed
// form a dict-encoded DWRF stream decodes to: sorted distinct values in
// Dict, per-occurrence indices in Values.
func dictEncoded(b *dwrf.Batch) *dwrf.Batch {
	for id, c := range b.Sparse {
		dict := slices.Clone(c.Values)
		slices.Sort(dict)
		dict = slices.Compact(dict)
		idx := make([]int64, len(c.Values))
		for i, v := range c.Values {
			j, _ := slices.BinarySearch(dict, v)
			idx[i] = int64(j)
		}
		b.Sparse[id] = &dwrf.SparseColumn{Offsets: c.Offsets, Values: idx, Dict: dict}
	}
	return b
}

// BenchmarkTransformGraph runs the representative preprocessing DAG
// through the compiled slot-indexed plan with a column arena, as a
// worker does. "compiled" hashes plain sparse inputs drawn from 2^20
// IDs; "compiled-dict" takes dict-encoded inputs from a 4096-ID space,
// the shape of train_cold's dict-encoded partitions, so SigridHash runs
// once per distinct value and Cartesian and NGram run their dict-prefix
// kernels.
func BenchmarkTransformGraph(b *testing.B) {
	for _, c := range []struct {
		name  string
		batch *dwrf.Batch
	}{
		{"compiled", benchBatch(512, 1<<20)},
		{"compiled-dict", dictEncoded(benchBatch(512, 4096))},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := transforms.StandardGraph([]schema.FeatureID{1}, []schema.FeatureID{2, 3}, 6, 1000)
			plan, err := g.CompilePlan()
			if err != nil {
				b.Fatal(err)
			}
			arena := dwrf.NewArena()
			batch := arenaBatchFrom(arena, c.batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(batch, arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTensorMaterialize(b *testing.B) {
	batch := benchBatch(512, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Materialize(batch, []schema.FeatureID{1}, []schema.FeatureID{2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatagenSample(b *testing.B) {
	spec := datagen.RM1.Scale(0.05, 1, 1)
	g := datagen.NewGenerator(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Sample()
	}
}

func BenchmarkTectonicRead(b *testing.B) {
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Create("f"); err != nil {
		b.Fatal(err)
	}
	if err := cluster.Append("f", make([]byte, 8<<20)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cluster.ReadAt("f", int64(i%64)<<16, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}
