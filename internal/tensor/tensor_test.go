package tensor

import (
	"math/rand"
	"slices"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

func srcBatch() *dwrf.Batch {
	return &dwrf.Batch{
		Rows:   3,
		Labels: []float32{1, 0, 1},
		Dense: map[schema.FeatureID]*dwrf.DenseColumn{
			1: {Present: []bool{true, false, true}, Values: []float32{0.5, 0, 1.5}},
			2: {Present: []bool{true, true, true}, Values: []float32{1, 2, 3}},
		},
		Sparse: map[schema.FeatureID]*dwrf.SparseColumn{
			10: {Offsets: []int32{0, 2, 2, 3}, Values: []int64{7, 8, 9}},
		},
		ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
	}
}

// sparseRow returns row i's indices of a CSR tensor.
func sparseRow(s *SparseTensor, i int) []int64 { return s.Indices[s.Offsets[i]:s.Offsets[i+1]] }

func TestMaterialize(t *testing.T) {
	b, err := Materialize(srcBatch(), []schema.FeatureID{2, 1}, []schema.FeatureID{10})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 3 || b.Dense.Cols != 2 {
		t.Fatalf("shape = %dx%d", b.Rows, b.Dense.Cols)
	}
	// Columns sorted ascending: col0=feature1, col1=feature2.
	if b.DenseFeatureIDs[0] != 1 || b.DenseFeatureIDs[1] != 2 {
		t.Fatalf("column order = %v", b.DenseFeatureIDs)
	}
	if b.Dense.At(0, 0) != 0.5 || b.Dense.At(1, 0) != 0 || b.Dense.At(2, 1) != 3 {
		t.Fatalf("dense values wrong: %+v", b.Dense)
	}
	if len(b.Sparse) != 1 || b.Sparse[0].Feature != 10 {
		t.Fatalf("sparse = %+v", b.Sparse)
	}
	row0 := sparseRow(b.Sparse[0], 0)
	if len(row0) != 2 || row0[0] != 7 {
		t.Fatalf("sparse row0 = %v", row0)
	}
	if len(sparseRow(b.Sparse[0], 1)) != 0 {
		t.Fatal("sparse row1 should be empty")
	}
	if b.Labels[0] != 1 || b.Labels[1] != 0 {
		t.Fatalf("labels = %v", b.Labels)
	}
}

func TestMaterializeMissingFeatures(t *testing.T) {
	b, err := Materialize(srcBatch(), []schema.FeatureID{99}, []schema.FeatureID{88})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if b.Dense.At(r, 0) != 0 {
			t.Fatal("missing dense should be zero")
		}
		if len(sparseRow(b.Sparse[0], r)) != 0 {
			t.Fatal("missing sparse should be empty")
		}
	}
}

func TestMaterializeShapeMismatch(t *testing.T) {
	src := srcBatch()
	src.Dense[1].Values = src.Dense[1].Values[:1]
	if _, err := Materialize(src, []schema.FeatureID{1}, nil); err == nil {
		t.Fatal("bad dense shape accepted")
	}
	src2 := srcBatch()
	src2.Sparse[10].Offsets = src2.Sparse[10].Offsets[:2]
	if _, err := Materialize(src2, nil, []schema.FeatureID{10}); err == nil {
		t.Fatal("bad sparse shape accepted")
	}
}

// TestMaterializeMissingLabels: a batch with fewer labels than rows is
// refused like a short column, by both materializers, never zero-filled.
func TestMaterializeMissingLabels(t *testing.T) {
	for _, labels := range [][]float32{nil, {1, 0}} {
		src := srcBatch()
		src.Labels = labels
		if _, err := Materialize(src, []schema.FeatureID{1}, nil); err == nil {
			t.Fatalf("%d labels over %d rows accepted", len(labels), src.Rows)
		}
		var fw FrameWriter
		if err := fw.Reset(src, []schema.FeatureID{1}, nil, 0); err == nil {
			t.Fatalf("frame writer accepted %d labels over %d rows", len(labels), src.Rows)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	b, err := Materialize(srcBatch(), []schema.FeatureID{1, 2}, []schema.FeatureID{10})
	if err != nil {
		t.Fatal(err)
	}
	// labels 3*4 + dense 6*4 + sparse 3*8 + offsets 4*4 = 12+24+24+16 = 76
	if got := b.SizeBytes(); got != 76 {
		t.Fatalf("SizeBytes = %d, want 76", got)
	}
}

// randomSplit builds a rows-row transformed batch over dense features 1-3
// (1 always present, 2 with missing values, 3 absent) and sparse features
// 10-12 (10 plain, 11 dictionary-indexed, 12 absent), with one label a
// row.
func randomSplit(rng *rand.Rand, rows int) *dwrf.Batch {
	src := &dwrf.Batch{
		Rows:   rows,
		Labels: make([]float32, rows),
		Dense:  map[schema.FeatureID]*dwrf.DenseColumn{},
		Sparse: map[schema.FeatureID]*dwrf.SparseColumn{},
	}
	for i := range src.Labels {
		src.Labels[i] = float32(rng.Intn(2))
	}
	for id, missing := range map[schema.FeatureID]float64{1: 0, 2: 0.4} {
		col := &dwrf.DenseColumn{Present: make([]bool, rows), Values: make([]float32, rows)}
		for r := range rows {
			if rng.Float64() >= missing {
				col.Present[r], col.Values[r] = true, rng.Float32()
			}
		}
		src.Dense[id] = col
	}
	dict := []int64{3, 41, 592, 6535}
	for _, id := range []schema.FeatureID{10, 11} {
		col := &dwrf.SparseColumn{Offsets: make([]int32, rows+1)}
		for r := range rows {
			for range rng.Intn(4) {
				if id == 11 {
					col.Values = append(col.Values, int64(rng.Intn(len(dict))))
				} else {
					col.Values = append(col.Values, rng.Int63n(1<<20))
				}
			}
			col.Offsets[r+1] = int32(len(col.Values))
		}
		if id == 11 {
			col.Dict = dict
		}
		src.Sparse[id] = col
	}
	return src
}

// rowSlice is the oracle for one delivered batch: rows [lo, hi) of a
// whole-split tensor batch, sparse offsets rebased to the range.
func rowSlice(b *Batch, lo, hi int) *Batch {
	rows, cols := hi-lo, b.Dense.Cols
	out := &Batch{
		Rows:            rows,
		DenseFeatureIDs: b.DenseFeatureIDs,
		Labels:          b.Labels[lo:hi],
		Dense:           &Dense2D{Rows: rows, Cols: cols, Data: b.Dense.Data[lo*cols : hi*cols]},
	}
	for _, s := range b.Sparse {
		base := s.Offsets[lo]
		ns := &SparseTensor{Feature: s.Feature, Indices: s.Indices[base:s.Offsets[hi]]}
		for _, off := range s.Offsets[lo : hi+1] {
			ns.Offsets = append(ns.Offsets, off-base)
		}
		out.Sparse = append(out.Sparse, ns)
	}
	return out
}

// sameBatch reports whether two batches hold the same tensors; nil and
// empty slices compare equal.
func sameBatch(a, b *Batch) bool {
	if a.Rows != b.Rows || a.Dense.Rows != b.Dense.Rows || a.Dense.Cols != b.Dense.Cols ||
		!slices.Equal(a.DenseFeatureIDs, b.DenseFeatureIDs) || !slices.Equal(a.Labels, b.Labels) ||
		!slices.Equal(a.Dense.Data, b.Dense.Data) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for i, s := range a.Sparse {
		o := b.Sparse[i]
		if s.Feature != o.Feature || !slices.Equal(s.Offsets, o.Offsets) || !slices.Equal(s.Indices, o.Indices) {
			return false
		}
	}
	return true
}

// checkWhole grounds the oracle: every value of the whole-split batch
// read back from the source columns of randomSplit.
func checkWhole(t *testing.T, src *dwrf.Batch, b *Batch) {
	t.Helper()
	for r := range src.Rows {
		if b.Labels[r] != src.Labels[r] {
			t.Fatalf("row %d label %v", r, b.Labels[r])
		}
		for c, id := range b.DenseFeatureIDs {
			var want float32
			if col, ok := src.Dense[id]; ok && col.Present[r] {
				want = col.Values[r]
			}
			if b.Dense.At(r, c) != want {
				t.Fatalf("row %d dense %d = %v, want %v", r, id, b.Dense.At(r, c), want)
			}
		}
		for _, st := range b.Sparse {
			var want []int64
			if col, ok := src.Sparse[st.Feature]; ok {
				want = col.MaterializedValues(nil)[col.Offsets[r]:col.Offsets[r+1]]
			}
			if got := sparseRow(st, r); !slices.Equal(got, want) {
				t.Fatalf("row %d sparse %d = %v, want %v", r, st.Feature, got, want)
			}
		}
	}
}

// TestMaterializeBatchesMatchesSlicedWhole is the property the worker's
// load step rests on: materializing a split straight into BatchSize-row
// batches delivers exactly the rows, in order, that materializing the
// whole split and cutting it into row ranges would — for row counts
// below, equal to and not a multiple of the batch size and for zero
// rows, over plain and dictionary-indexed sparse columns and missing
// dense values.
func TestMaterializeBatchesMatchesSlicedWhole(t *testing.T) {
	const batchSize = 16
	rng := rand.New(rand.NewSource(1))
	dense := []schema.FeatureID{3, 1, 2}
	sparse := []schema.FeatureID{12, 11, 10}
	for _, rows := range []int{0, 1, batchSize - 1, batchSize, batchSize + 1, 2 * batchSize, 5*batchSize + 7} {
		src := randomSplit(rng, rows)
		whole, err := Materialize(src, dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		checkWhole(t, src, whole)
		got, err := MaterializeBatches(src, dense, sparse, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(1, (rows+batchSize-1)/batchSize); len(got) != want {
			t.Fatalf("rows=%d: %d batches, want %d", rows, len(got), want)
		}
		for i, b := range got {
			lo := i * batchSize
			if want := rowSlice(whole, lo, min(lo+batchSize, rows)); !sameBatch(b, want) {
				t.Fatalf("rows=%d batch %d differs from rows [%d, %d) of the whole split", rows, i, lo, want.Rows+lo)
			}
		}
	}
}
