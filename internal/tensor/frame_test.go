package tensor

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// frameWidths walks a well-formed frame and returns each sparse
// tensor's stored index width.
func frameWidths(t *testing.T, frame []byte) []int {
	t.Helper()
	le := binary.LittleEndian
	rows, nDense, nSparse := int(le.Uint32(frame[8:])), int(le.Uint32(frame[12:])), int(le.Uint32(frame[24:]))
	pos := frameHeaderLen + 4*(nDense+rows+rows*nDense*int(le.Uint32(frame[20:])))
	var widths []int
	for range nSparse {
		n, w := int(le.Uint32(frame[pos+4:])), int(frame[pos+8])
		widths = append(widths, w)
		pos += sparseHeaderLen + 4*(rows+1) + n*w
	}
	if pos != len(frame) {
		t.Fatalf("frame walk ends at %d of %d bytes", pos, len(frame))
	}
	return widths
}

// checkFrame holds one frame-writer frame to its oracle batch: the same
// bytes as AppendBinary, the same SizeBytes, and a decode with the same
// content digest.
func checkFrame(t *testing.T, what string, got []byte, gotSize int64, want *Batch) {
	t.Helper()
	if enc := want.AppendBinary(nil); !bytes.Equal(got, enc) {
		t.Fatalf("%s: frame writer wrote %d bytes, AppendBinary %d, and they differ", what, len(got), len(enc))
	}
	if gotSize != want.SizeBytes() {
		t.Fatalf("%s: frame writer reports SizeBytes %d, the batch has %d", what, gotSize, want.SizeBytes())
	}
	dec, n, err := DecodeBinary(got)
	if err != nil || n != len(got) {
		t.Fatalf("%s: decode = %d bytes, %v", what, n, err)
	}
	if dec.EncodedSize() != len(got) {
		t.Fatalf("%s: decoded EncodedSize %d for a %d-byte frame", what, dec.EncodedSize(), len(got))
	}
	a, b := NewContentSum(), NewContentSum()
	a.AddBatch(want)
	b.AddBatch(dec)
	if !a.Equal(b) {
		t.Fatalf("%s: decoded frame digests differently from the oracle batch", what)
	}
	dec.Release()
}

// TestFrameWriterMatchesMaterialize is the property the worker's frames
// rest on: over TestMaterializeBatchesMatchesSlicedWhole's splits, cut by
// one reused writer, every frame is byte-identical to MaterializeBatches
// + AppendBinary, and so is every row range [lo, hi) of the split
// against the same rows of the whole-split batch.
func TestFrameWriterMatchesMaterialize(t *testing.T) {
	const batchSize = 16
	rng := rand.New(rand.NewSource(1))
	dense := []schema.FeatureID{3, 1, 2}
	sparse := []schema.FeatureID{12, 11, 10}
	var fw FrameWriter // one writer reset for every split, as a worker's is
	for _, rows := range []int{0, 1, batchSize - 1, batchSize, batchSize + 1, 2 * batchSize, 5*batchSize + 7} {
		for _, labels := range []int{rows, rows / 2, 0} {
			src := randomSplit(rng, rows, labels)
			if err := fw.Reset(src, dense, sparse, batchSize); err != nil {
				t.Fatal(err)
			}
			batches, err := MaterializeBatches(src, dense, sparse, batchSize)
			if err != nil {
				t.Fatal(err)
			}
			if fw.Len() != len(batches) {
				t.Fatalf("rows=%d: frame writer cuts %d frames, MaterializeBatches %d batches", rows, fw.Len(), len(batches))
			}
			for i, b := range batches {
				lo, hi := fw.Range(i)
				got, size := fw.AppendRange(nil, lo, hi)
				checkFrame(t, "batch", got, size, b)
			}
			whole, err := Materialize(src, dense, sparse)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo <= rows; lo++ {
				for hi := lo; hi <= rows; hi++ {
					// A prefix in dst must be kept and not written over.
					got, size := fw.AppendRange([]byte("prefix"), lo, hi)
					if string(got[:6]) != "prefix" {
						t.Fatalf("rows [%d, %d): the prefix was overwritten", lo, hi)
					}
					checkFrame(t, "range", got[6:], size, rowSlice(whole, lo, hi))
				}
			}
		}
	}
}

// TestFrameWriterIndexWidths pins the width rule on hand-built columns:
// a largest index that needs each width from 1 to 8 bytes, a negative
// index, an all-empty tensor, a missing column, and the same values
// plain and dictionary-indexed.
func TestFrameWriterIndexWidths(t *testing.T) {
	largest := func(w int) int64 {
		if w == 1 {
			return 255
		}
		return 1 << (8 * (w - 1)) // the smallest index that needs w bytes
	}
	for w := 1; w <= 8; w++ {
		vals := []int64{0, 3, largest(w), 1}
		src := &dwrf.Batch{
			Rows:   3,
			Labels: []float32{1, 0, 1},
			Sparse: map[schema.FeatureID]*dwrf.SparseColumn{
				10: {Offsets: []int32{0, 2, 2, 4}, Values: vals},
				11: {Offsets: []int32{0, 2, 2, 4}, Values: []int64{1, 0, 2, 2}, Dict: []int64{largest(w), 7, 1}},
				12: {Offsets: []int32{0, 0, 0, 0}},
				13: {Offsets: []int32{0, 1, 1, 2}, Values: []int64{5, -largest(w)}},
			},
		}
		ids := []schema.FeatureID{10, 11, 12, 13, 14} // 14 is missing
		var fw FrameWriter
		if err := fw.Reset(src, nil, ids, 0); err != nil {
			t.Fatal(err)
		}
		got, size := fw.AppendRange(nil, 0, 3)
		want, err := Materialize(src, nil, ids)
		if err != nil {
			t.Fatal(err)
		}
		checkFrame(t, "widths", got, size, want)
		if ws, wantWs := frameWidths(t, got), []int{w, w, 1, 8, 1}; !slices.Equal(ws, wantWs) {
			t.Fatalf("largest index %d: widths %v, want %v", largest(w), ws, wantWs)
		}
		// One below the boundary needs one byte fewer.
		if w > 1 {
			src.Sparse[10].Values[2] = largest(w) - 1
			got, _ := fw.AppendRange(nil, 0, 3)
			if ws := frameWidths(t, got); ws[0] != max(1, w-1) {
				t.Fatalf("largest index %d: width %d, want %d", largest(w)-1, ws[0], max(1, w-1))
			}
		}
	}
}

func TestFrameWriterShapeMismatch(t *testing.T) {
	src := srcBatch()
	src.Dense[1].Values = src.Dense[1].Values[:1]
	var fw FrameWriter
	if err := fw.Reset(src, []schema.FeatureID{1}, nil, 0); err == nil {
		t.Fatal("bad dense shape accepted")
	}
	src2 := srcBatch()
	src2.Sparse[10].Offsets = src2.Sparse[10].Offsets[:2]
	if err := fw.Reset(src2, nil, []schema.FeatureID{10}, 0); err == nil {
		t.Fatal("bad sparse shape accepted")
	}
}

// elevenSparseFrame is one 128-row frame of the standard session shape
// at RM1's tensor outputs: 13 dense columns and 11 sparse outputs of
// 20-bit buckets.
func elevenSparseFrame() []byte {
	const rows = 128
	rng := rand.New(rand.NewSource(11))
	b := &Batch{Rows: rows, Labels: make([]float32, rows), Dense: &Dense2D{Rows: rows, Cols: 13, Data: make([]float32, rows*13)}}
	for c := range 13 {
		b.DenseFeatureIDs = append(b.DenseFeatureIDs, schema.FeatureID(c+1))
	}
	for f := range 11 {
		st := &SparseTensor{Feature: schema.FeatureID(100 + f), Offsets: make([]int32, 1, rows+1)}
		for range rows {
			for range rng.Intn(40) {
				st.Indices = append(st.Indices, rng.Int63n(1<<20))
			}
			st.Offsets = append(st.Offsets, int32(len(st.Indices)))
		}
		b.Sparse = append(b.Sparse, st)
	}
	return b.AppendBinary(nil)
}

// TestDecodeReleaseAllocs pins the decode slab: a warmed 11-sparse-output
// frame decodes and releases in at most 2 allocations — the Batch header
// and nothing per tensor.
func TestDecodeReleaseAllocs(t *testing.T) {
	frame := elevenSparseFrame()
	step := func() {
		b, _, err := DecodeBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	step()
	if got := testing.AllocsPerRun(100, step); got > 2 {
		t.Fatalf("decode + release costs %.1f allocations, want at most 2", got)
	}
}
