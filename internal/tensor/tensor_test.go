package tensor

import (
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

func TestMaterializeMissingLabels(t *testing.T) {
	src := srcBatch()
	src.Labels = nil
	b, err := Materialize(src, []schema.FeatureID{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Labels) != 3 {
		t.Fatalf("labels = %v", b.Labels)
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
