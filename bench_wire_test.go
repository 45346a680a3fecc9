package dsi_test

import (
	"math/rand"
	"testing"

	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// wireBenchBatch builds one batch of the standard session shape (128
// rows, two dense columns, two sparse features at ~16 indices per row)
// for wire-format benchmarks.
func wireBenchBatch() *tensor.Batch {
	const rows = 128
	rng := rand.New(rand.NewSource(42))
	b := &tensor.Batch{
		Rows:            rows,
		DenseFeatureIDs: []schema.FeatureID{2, 101},
		Labels:          make([]float32, rows),
		Dense:           &tensor.Dense2D{Rows: rows, Cols: 2, Data: make([]float32, rows*2)},
	}
	for i := range b.Labels {
		b.Labels[i] = rng.Float32()
	}
	for i := range b.Dense.Data {
		b.Dense.Data[i] = rng.Float32()
	}
	for _, id := range []schema.FeatureID{18, 100} {
		st := &tensor.SparseTensor{Feature: id, Offsets: make([]int32, 1, rows+1)}
		for r := 0; r < rows; r++ {
			for j := 0; j < 16; j++ {
				st.Indices = append(st.Indices, rng.Int63n(1<<18))
			}
			st.Offsets = append(st.Offsets, int32(len(st.Indices)))
		}
		b.Sparse = append(b.Sparse, st)
	}
	return b
}

// BenchmarkTensorWireCodec isolates the codec itself (no network): one
// encode into a pooled frame plus one decode and release; bench/'s
// dpp.wire layer is the transport-inclusive figure.
func BenchmarkTensorWireCodec(b *testing.B) {
	batch := wireBenchBatch()
	b.SetBytes(batch.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := tensor.GetFrameBuf()
		frame = batch.AppendBinary(frame)
		dec, _, err := tensor.DecodeBinary(frame)
		if err != nil {
			b.Fatal(err)
		}
		dec.Release()
		tensor.PutFrameBuf(frame)
	}
}
