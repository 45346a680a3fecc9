package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// FrameWriter writes the batches a worker delivers straight from a
// transformed split into TBF2 frames: for each row range it produces
// the bytes MaterializeBatches + AppendBinary would, with the same
// offset rebasing, dictionary expansion and imputation, but builds no
// tensor batch in between — the frame is the batch until a trainer
// decodes it.
type FrameWriter struct {
	src       *dwrf.Batch
	dIDs      []schema.FeatureID
	dense     []*dwrf.DenseColumn
	sIDs      []schema.FeatureID
	sparse    []*dwrf.SparseColumn
	batchSize int
	// widths is the index width of each sparse output in the range being
	// written.
	widths []int
}

// Reset points the writer at src: it selects the given dense and sparse
// features and cuts the rows as MaterializeBatches(src, denseIDs,
// sparseIDs, batchSize) does — consecutive ranges of batchSize rows, the
// last one shorter, and exactly one range for a split of at most
// batchSize rows (zero included) or a batchSize <= 0. It fails where
// MaterializeBatches fails, on a label slice or column whose length
// disagrees with src.Rows. The writer reuses its selection slices, so one kept across
// splits cuts each without allocating; the zero FrameWriter is ready
// for Reset.
func (fw *FrameWriter) Reset(src *dwrf.Batch, denseIDs, sparseIDs []schema.FeatureID, batchSize int) error {
	fw.src = src
	fw.dIDs = append(fw.dIDs[:0], denseIDs...)
	fw.sIDs = append(fw.sIDs[:0], sparseIDs...)
	slices.Sort(fw.dIDs)
	slices.Sort(fw.sIDs)
	fw.dense = slices.Grow(fw.dense[:0], len(denseIDs))[:len(denseIDs)]
	fw.sparse = slices.Grow(fw.sparse[:0], len(sparseIDs))[:len(sparseIDs)]
	fw.widths = slices.Grow(fw.widths[:0], len(sparseIDs))[:len(sparseIDs)]
	if len(src.Labels) != src.Rows {
		return fmt.Errorf("tensor: %d labels for %d rows", len(src.Labels), src.Rows)
	}
	for c, id := range fw.dIDs {
		col, ok := src.Dense[id]
		if ok && len(col.Values) != src.Rows {
			return fmt.Errorf("tensor: dense feature %d has %d values for %d rows", id, len(col.Values), src.Rows)
		}
		fw.dense[c] = col
	}
	for i, id := range fw.sIDs {
		col, ok := src.Sparse[id]
		if ok && len(col.Offsets) != src.Rows+1 {
			return fmt.Errorf("tensor: sparse feature %d has %d offsets for %d rows", id, len(col.Offsets), src.Rows)
		}
		fw.sparse[i] = col
	}
	fw.batchSize = batchSize
	if batchSize <= 0 || batchSize > src.Rows {
		fw.batchSize = src.Rows
	}
	return nil
}

// Len is the number of row ranges, so of frames, the split cuts into.
func (fw *FrameWriter) Len() int {
	if fw.src.Rows == 0 {
		return 1
	}
	return (fw.src.Rows + fw.batchSize - 1) / fw.batchSize
}

// Range returns the rows [lo, hi) of the i-th frame.
func (fw *FrameWriter) Range(i int) (lo, hi int) {
	lo = i * fw.batchSize
	return lo, min(lo+fw.batchSize, fw.src.Rows)
}

// AppendRange appends rows [lo, hi) of the selected columns as one TBF2
// frame and returns the extended buffer together with the SizeBytes of
// the batch the frame carries. It writes each byte of the frame once,
// into dst's spare capacity.
func (fw *FrameWriter) AppendRange(dst []byte, lo, hi int) ([]byte, int64) {
	src := fw.src
	rows, cols := hi-lo, len(fw.dIDs)
	size := frameHeaderLen + 4*(cols+rows+rows*cols)
	tensorBytes := int64(4 * (rows + rows*cols))
	for i, col := range fw.sparse {
		n, or := 0, uint64(0)
		if col != nil {
			vals := col.Values[col.Offsets[lo]:col.Offsets[hi]]
			n = len(vals)
			if col.IsDict() {
				for _, v := range vals {
					or |= uint64(col.Dict[v])
				}
			} else {
				or = indicesOr(vals)
			}
		}
		fw.widths[i] = indexWidth(or)
		size += sparseHeaderLen + 4*(rows+1) + fw.widths[i]*n
		tensorBytes += int64(8*n + 4*(rows+1))
	}

	start := len(dst)
	// Eight spare bytes: indices are stored a whole word at a time.
	dst = slices.Grow(dst, size+8)[:start+size+8]
	p := dst[start:]
	le := binary.LittleEndian
	p = putHeader(p, size, rows, fw.dIDs, rows, 1, len(fw.sIDs))
	p = putFloats(p, src.Labels[lo:hi])
	for r := lo; r < hi; r++ {
		for _, col := range fw.dense {
			var v float32
			if col != nil && col.Present[r] {
				v = col.Values[r]
			}
			le.PutUint32(p, math.Float32bits(v))
			p = p[4:]
		}
	}
	for i, col := range fw.sparse {
		w := fw.widths[i]
		var base int32
		var vals []int64
		if col != nil {
			base = col.Offsets[lo]
			vals = col.Values[base:col.Offsets[hi]]
		}
		p = putSparseHeader(p, fw.sIDs[i], len(vals), w)
		for r := lo; r <= hi; r++ {
			var off int32
			if col != nil {
				off = col.Offsets[r] - base
			}
			le.PutUint32(p, uint32(off))
			p = p[4:]
		}
		if col == nil || !col.IsDict() {
			p = putIndices(p, vals, w)
			continue
		}
		for j, v := range vals {
			le.PutUint64(p[j*w:], uint64(col.Dict[v]))
		}
		p = p[len(vals)*w:]
	}
	return dst[:start+size], tensorBytes
}
