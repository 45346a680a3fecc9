// Package tensor materializes preprocessed columnar batches into the
// tensors a trainer loads into device memory (§3.2): a dense feature
// matrix, per-feature sparse index lists in CSR-style layout (the format
// DLRM embedding lookups consume), and a label vector.
package tensor

import (
	"fmt"
	"math"
	"slices"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// Dense2D is a row-major [Rows x Cols] float32 matrix.
type Dense2D struct {
	Rows, Cols int
	Data       []float32
}

// At returns element (r, c).
func (d *Dense2D) At(r, c int) float32 { return d.Data[r*d.Cols+c] }

// SparseTensor is one sparse feature in CSR layout across the batch.
type SparseTensor struct {
	Feature schema.FeatureID
	// Offsets has Rows+1 entries.
	Offsets []int32
	Indices []int64
}

// Batch is a fully materialized training mini-batch.
type Batch struct {
	Rows int
	// DenseFeatureIDs names the columns of Dense, in ascending ID order.
	DenseFeatureIDs []schema.FeatureID
	Dense           *Dense2D
	Sparse          []*SparseTensor
	Labels          []float32

	// Split and Seq are the batch's delivery provenance: the 1-based
	// split it was materialized from and its 1-based position within
	// that split's batch sequence. Split == 0 means untagged (synthetic
	// or legacy batches). SeqCount is the total number of batches the
	// split materialized into, letting consumers compact their dedup
	// ledgers once a split has been seen in full. They are not part of
	// the content codec (AppendBinary/DecodeBinary); the DPP data plane
	// transports them alongside the frame so trainers can deduplicate
	// re-deliveries when a crashed worker's splits are reprocessed —
	// MaterializeBatches cuts a split into the same row ranges every
	// time, so (Split, Seq) names the same rows on every run.
	Split    int32
	Seq      int32
	SeqCount int32

	// slab is the recycled allocation every slice of a decoded batch was
	// drawn from (DecodeBinary); Release returns it whole. Unexported, so
	// gob and struct literals leave it nil and Release stays a no-op for
	// ordinary batches.
	slab *slab
}

// SizeBytes reports the batch's tensor footprint as a trainer holds it:
// 4 bytes per dense cell and label, 8 per sparse (i64) index, 4 per
// offset. It is a model of the tensors, not of the wire: a TBF2 frame
// stores each index in the bytes its batch needs (EncodedSize).
func (b *Batch) SizeBytes() int64 {
	var total int64 = int64(len(b.Labels)) * 4
	if b.Dense != nil {
		total += int64(len(b.Dense.Data)) * 4
	}
	for _, s := range b.Sparse {
		total += int64(len(s.Indices))*8 + int64(len(s.Offsets))*4
	}
	return total
}

// Materialize converts a preprocessed columnar batch into one tensor
// batch of all its rows: MaterializeBatches with no batch size.
func Materialize(src *dwrf.Batch, denseIDs, sparseIDs []schema.FeatureID) (*Batch, error) {
	out, err := MaterializeBatches(src, denseIDs, sparseIDs, 0)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// MaterializeBatches converts a preprocessed columnar batch into the
// tensor batches a worker delivers, selecting the given dense and sparse
// features: consecutive row ranges of batchSize rows (the last one
// shorter), each copied straight from the columns. A batch of at most
// batchSize rows — zero rows included — or a batchSize <= 0 yields
// exactly one batch. Missing dense values materialize as zeros (the
// standard imputation), missing sparse rows as empty lists, and rows
// past a short label stream with zero labels.
func MaterializeBatches(src *dwrf.Batch, denseIDs, sparseIDs []schema.FeatureID, batchSize int) ([]*Batch, error) {
	dIDs := slices.Sorted(slices.Values(denseIDs))
	sIDs := slices.Sorted(slices.Values(sparseIDs))
	dense := make([]*dwrf.DenseColumn, len(dIDs))
	for c, id := range dIDs {
		col, ok := src.Dense[id]
		if ok && len(col.Values) != src.Rows {
			return nil, fmt.Errorf("tensor: dense feature %d has %d values for %d rows", id, len(col.Values), src.Rows)
		}
		dense[c] = col
	}
	sparse := make([]*dwrf.SparseColumn, len(sIDs))
	for i, id := range sIDs {
		col, ok := src.Sparse[id]
		if ok && len(col.Offsets) != src.Rows+1 {
			return nil, fmt.Errorf("tensor: sparse feature %d has %d offsets for %d rows", id, len(col.Offsets), src.Rows)
		}
		sparse[i] = col
	}

	if batchSize <= 0 || batchSize > src.Rows {
		batchSize = src.Rows
	}
	n := 1
	if src.Rows > 0 {
		n = (src.Rows + batchSize - 1) / batchSize
	}
	out := make([]*Batch, n)
	for i := range out {
		lo := i * batchSize
		out[i] = materializeRange(src, dIDs, dense, sIDs, sparse, lo, min(lo+batchSize, src.Rows))
	}
	return out, nil
}

// materializeRange copies rows [lo, hi) of the selected columns (nil
// where the batch lacks the feature) into one tensor batch. Sparse
// offsets are rebased to the range, and a dictionary-indexed column
// expands to its values so the delivered tensor is
// representation-independent.
func materializeRange(src *dwrf.Batch, dIDs []schema.FeatureID, dense []*dwrf.DenseColumn,
	sIDs []schema.FeatureID, sparse []*dwrf.SparseColumn, lo, hi int) *Batch {
	rows, cols := hi-lo, len(dIDs)
	out := &Batch{
		Rows:            rows,
		DenseFeatureIDs: dIDs,
		Labels:          make([]float32, rows),
		Dense:           &Dense2D{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)},
		Sparse:          make([]*SparseTensor, len(sIDs)),
	}
	if lo < len(src.Labels) {
		copy(out.Labels, src.Labels[lo:])
	}
	for c, col := range dense {
		if col == nil {
			continue
		}
		for r := lo; r < hi; r++ {
			if col.Present[r] {
				out.Dense.Data[(r-lo)*cols+c] = col.Values[r]
			}
		}
	}
	tensors := make([]SparseTensor, len(sIDs))
	for i, col := range sparse {
		st := &tensors[i]
		st.Feature = sIDs[i]
		st.Offsets = make([]int32, rows+1)
		out.Sparse[i] = st
		if col == nil {
			continue
		}
		base := col.Offsets[lo]
		for r := range st.Offsets {
			st.Offsets[r] = col.Offsets[lo+r] - base
		}
		vals := col.Values[base:col.Offsets[hi]]
		if !col.IsDict() {
			st.Indices = append([]int64(nil), vals...)
			continue
		}
		st.Indices = make([]int64, len(vals))
		for j, idx := range vals {
			st.Indices[j] = col.Dict[idx]
		}
	}
	return out
}

// ContentSum is an order-independent digest of delivered tensor content,
// used by end-to-end tests to prove the DPP pipeline delivers exactly
// the written data regardless of split and batch arrival order: row
// count, a label digest, per-dense-feature value digests, and
// per-sparse-feature index sums and counts. Float values are digested by
// summing their IEEE-754 bit patterns (wrapping uint64 arithmetic), so
// accumulation order never changes the result and a missing value
// (materialized 0.0) contributes nothing.
type ContentSum struct {
	Rows   int64
	Labels uint64
	Dense  map[schema.FeatureID]uint64
	Sparse map[schema.FeatureID]int64
	Counts map[schema.FeatureID]int64
}

// NewContentSum returns an empty digest.
func NewContentSum() *ContentSum {
	return &ContentSum{
		Dense:  make(map[schema.FeatureID]uint64),
		Sparse: make(map[schema.FeatureID]int64),
		Counts: make(map[schema.FeatureID]int64),
	}
}

// AddBatch folds one delivered batch into the digest.
func (c *ContentSum) AddBatch(b *Batch) {
	c.Rows += int64(b.Rows)
	for _, l := range b.Labels {
		c.Labels += uint64(math.Float32bits(l))
	}
	for col, id := range b.DenseFeatureIDs {
		for r := 0; r < b.Rows; r++ {
			c.Dense[id] += uint64(math.Float32bits(b.Dense.At(r, col)))
		}
	}
	for _, s := range b.Sparse {
		for _, idx := range s.Indices {
			c.Sparse[s.Feature] += idx
		}
		c.Counts[s.Feature] += int64(len(s.Indices))
	}
}

// AddLabel folds one expected label into the digest.
func (c *ContentSum) AddLabel(l float32) {
	c.Labels += uint64(math.Float32bits(l))
}

// AddDense folds one expected dense value into the digest.
func (c *ContentSum) AddDense(id schema.FeatureID, v float32) {
	c.Dense[id] += uint64(math.Float32bits(v))
}

// AddSparse folds one expected sparse value list into the digest.
func (c *ContentSum) AddSparse(id schema.FeatureID, vals []int64) {
	for _, v := range vals {
		c.Sparse[id] += v
	}
	c.Counts[id] += int64(len(vals))
}

// Equal reports whether two digests match exactly. Zero-valued map
// entries are treated as absent so an expected feature that never
// appeared and a digest that never saw it compare equal.
func (c *ContentSum) Equal(other *ContentSum) bool {
	if c.Rows != other.Rows || c.Labels != other.Labels {
		return false
	}
	eqU := func(a, b map[schema.FeatureID]uint64) bool {
		for id, v := range a {
			if v != b[id] {
				return false
			}
		}
		for id, v := range b {
			if v != a[id] {
				return false
			}
		}
		return true
	}
	eqI := func(a, b map[schema.FeatureID]int64) bool {
		for id, v := range a {
			if v != b[id] {
				return false
			}
		}
		for id, v := range b {
			if v != a[id] {
				return false
			}
		}
		return true
	}
	return eqU(c.Dense, other.Dense) && eqI(c.Sparse, other.Sparse) && eqI(c.Counts, other.Counts)
}
