package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"dsi/internal/schema"
)

// This file is the explicit wire codec for Batch: length-prefixed,
// little-endian flat-binary frames, replacing reflection-driven gob on
// the worker→trainer data plane (the "datacenter tax" of §6.2 — the
// paper attributes a large share of DPP worker cycles to (de)serializing
// every training byte). Encoding is a single append pass into a caller
// (or pool) provided buffer; decoding validates every count against the
// remaining bytes before allocating, pulls its slices from pools, and
// hands them back through Batch.Release, so a steady-state trainer
// stream costs no per-batch garbage.
//
// Frame layout (all integers little-endian):
//
//	u32  magic "TBF1"
//	u32  frame length (total, including magic and this field)
//	u32  rows
//	u32  nDense   — len(DenseFeatureIDs); equals dense cols when a matrix is present
//	u32  nLabels  — must equal rows
//	u32  hasDense — 0 or 1
//	u32  nSparse
//	i32  × nDense   dense feature IDs (ascending)
//	f32  × nLabels  labels
//	f32  × rows*nDense  dense matrix, row-major (present iff hasDense)
//	then nSparse times:
//	  i32  feature ID
//	  u32  nIndices
//	  i32  × rows+1   CSR offsets (0 ≤ monotone ≤ nIndices, ends at nIndices)
//	  i64  × nIndices indices
//
// A frame decodes to a structurally valid batch or fails: label/offset/
// matrix shapes are enforced here so no downstream consumer (ContentSum,
// SizeBytes, SparseTensor.Row) can be driven out of bounds by corrupt or
// adversarial bytes.

// frameMagic identifies tensor batch frames ("TBF1").
const frameMagic uint32 = 'T' | 'B'<<8 | 'F'<<16 | '1'<<24

// frameHeaderLen is the fixed-size portion of a frame.
const frameHeaderLen = 7 * 4

// EncodedSize reports the exact frame length AppendBinary will produce.
func (b *Batch) EncodedSize() int {
	n := frameHeaderLen
	n += 4 * len(b.DenseFeatureIDs)
	n += 4 * len(b.Labels)
	if b.Dense != nil {
		n += 4 * len(b.Dense.Data)
	}
	for _, s := range b.Sparse {
		n += 4 + 4 + 4*len(s.Offsets) + 8*len(s.Indices)
	}
	return n
}

// AppendBinary appends the batch as one self-delimiting frame and
// returns the extended buffer. Encode into a pooled buffer (GetFrameBuf)
// to make the hot path allocation-free.
func (b *Batch) AppendBinary(dst []byte) []byte {
	dst = appendU32(dst, frameMagic)
	dst = appendU32(dst, uint32(b.EncodedSize()))
	dst = appendU32(dst, uint32(b.Rows))
	dst = appendU32(dst, uint32(len(b.DenseFeatureIDs)))
	dst = appendU32(dst, uint32(len(b.Labels)))
	if b.Dense != nil {
		dst = appendU32(dst, 1)
	} else {
		dst = appendU32(dst, 0)
	}
	dst = appendU32(dst, uint32(len(b.Sparse)))
	for _, id := range b.DenseFeatureIDs {
		dst = appendU32(dst, uint32(int32(id)))
	}
	for _, l := range b.Labels {
		dst = appendU32(dst, math.Float32bits(l))
	}
	if b.Dense != nil {
		for _, v := range b.Dense.Data {
			dst = appendU32(dst, math.Float32bits(v))
		}
	}
	for _, s := range b.Sparse {
		dst = appendU32(dst, uint32(int32(s.Feature)))
		dst = appendU32(dst, uint32(len(s.Indices)))
		for _, off := range s.Offsets {
			dst = appendU32(dst, uint32(off))
		}
		for _, idx := range s.Indices {
			dst = appendU64(dst, uint64(idx))
		}
	}
	return dst
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// frameReader is a bounds-checked cursor over one frame.
type frameReader struct {
	data []byte
	pos  int
}

func (r *frameReader) remaining() int { return len(r.data) - r.pos }

func (r *frameReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("tensor: frame truncated at byte %d", r.pos)
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *frameReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("tensor: frame truncated at byte %d", r.pos)
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

// checkCount validates that count elements of size elem bytes fit in the
// remaining frame, so corrupt counts can never force an allocation larger
// than the input itself.
func (r *frameReader) checkCount(count uint32, elem int, what string) error {
	if int64(count)*int64(elem) > int64(r.remaining()) {
		return fmt.Errorf("tensor: frame claims %d %s (%d bytes) with %d remaining", count, what, int64(count)*int64(elem), r.remaining())
	}
	return nil
}

// DecodeBinary decodes one frame from the front of data, returning the
// batch and the number of bytes consumed. Decoded slices come from
// internal pools; call Batch.Release when the consumer is finished with
// the tensors to recycle them. DecodeBinary never panics on arbitrary
// input: every count is validated against the remaining bytes and the
// decoded batch is structurally checked (label/matrix/CSR shapes) before
// it is returned.
func DecodeBinary(data []byte) (*Batch, int, error) {
	r := frameReader{data: data}
	magic, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if magic != frameMagic {
		return nil, 0, fmt.Errorf("tensor: bad frame magic %#08x", magic)
	}
	frameLen, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if int64(frameLen) > int64(len(data)) || frameLen < frameHeaderLen {
		return nil, 0, fmt.Errorf("tensor: frame length %d outside [%d,%d]", frameLen, frameHeaderLen, len(data))
	}
	// Bound the cursor to the declared frame so trailing bytes (the next
	// frame in a stream) are never misread as part of this one.
	r.data = data[:frameLen]

	rows, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	nDense, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	nLabels, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	hasDense, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	nSparse, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if hasDense > 1 {
		return nil, 0, fmt.Errorf("tensor: frame hasDense = %d", hasDense)
	}
	if nLabels != rows {
		return nil, 0, fmt.Errorf("tensor: frame has %d labels for %d rows", nLabels, rows)
	}
	if hasDense == 0 && nDense != 0 {
		return nil, 0, fmt.Errorf("tensor: frame names %d dense features without a matrix", nDense)
	}

	b := &Batch{Rows: int(rows), pooled: true}
	fail := func(err error) (*Batch, int, error) {
		b.Release()
		return nil, 0, err
	}

	if err := r.checkCount(nDense, 4, "dense feature IDs"); err != nil {
		return fail(err)
	}
	b.DenseFeatureIDs = getIDSlice(int(nDense))
	for i := range b.DenseFeatureIDs {
		v, err := r.u32()
		if err != nil {
			return fail(err)
		}
		b.DenseFeatureIDs[i] = schema.FeatureID(int32(v))
	}

	if err := r.checkCount(nLabels, 4, "labels"); err != nil {
		return fail(err)
	}
	b.Labels = getF32Slice(int(nLabels))
	for i := range b.Labels {
		v, err := r.u32()
		if err != nil {
			return fail(err)
		}
		b.Labels[i] = math.Float32frombits(v)
	}

	if hasDense == 1 {
		cells := uint64(rows) * uint64(nDense)
		if cells*4 > uint64(r.remaining()) {
			return fail(fmt.Errorf("tensor: frame claims %d dense cells with %d bytes remaining", cells, r.remaining()))
		}
		b.Dense = &Dense2D{Rows: int(rows), Cols: int(nDense), Data: getF32Slice(int(cells))}
		for i := range b.Dense.Data {
			v, err := r.u32()
			if err != nil {
				return fail(err)
			}
			b.Dense.Data[i] = math.Float32frombits(v)
		}
	}

	for si := uint32(0); si < nSparse; si++ {
		feat, err := r.u32()
		if err != nil {
			return fail(err)
		}
		nIndices, err := r.u32()
		if err != nil {
			return fail(err)
		}
		nOffsets := uint64(rows) + 1
		if nOffsets*4 > uint64(r.remaining()) {
			return fail(fmt.Errorf("tensor: frame sparse %d offsets truncated", si))
		}
		st := &SparseTensor{Feature: schema.FeatureID(int32(feat)), Offsets: getI32Slice(int(nOffsets))}
		b.Sparse = append(b.Sparse, st) // attach before filling so Release reclaims on failure
		prev := int32(0)
		for i := range st.Offsets {
			v, err := r.u32()
			if err != nil {
				return fail(err)
			}
			off := int32(v)
			if off < prev {
				return fail(fmt.Errorf("tensor: frame sparse %d offsets not monotone", si))
			}
			st.Offsets[i] = off
			prev = off
		}
		if st.Offsets[0] != 0 || uint32(st.Offsets[rows]) != nIndices {
			return fail(fmt.Errorf("tensor: frame sparse %d CSR bounds [%d,%d] for %d indices", si, st.Offsets[0], st.Offsets[rows], nIndices))
		}
		if err := r.checkCount(nIndices, 8, "sparse indices"); err != nil {
			return fail(err)
		}
		st.Indices = getI64Slice(int(nIndices))
		for i := range st.Indices {
			v, err := r.u64()
			if err != nil {
				return fail(err)
			}
			st.Indices[i] = int64(v)
		}
	}

	if r.pos != int(frameLen) {
		return fail(fmt.Errorf("tensor: frame length %d but payload ends at %d", frameLen, r.pos))
	}
	return b, int(frameLen), nil
}

// Release returns a decoded batch's slices to the codec pools. It is a
// no-op for batches not produced by DecodeBinary (Materialize,
// literals), so consumers can call it unconditionally after loading a
// batch; releasing twice is also safe. The batch must not be used after
// Release.
func (b *Batch) Release() {
	if b == nil || !b.pooled {
		return
	}
	b.pooled = false
	putIDSlice(b.DenseFeatureIDs)
	b.DenseFeatureIDs = nil
	putF32Slice(b.Labels)
	b.Labels = nil
	if b.Dense != nil {
		putF32Slice(b.Dense.Data)
		b.Dense = nil
	}
	for _, s := range b.Sparse {
		putI32Slice(s.Offsets)
		putI64Slice(s.Indices)
		s.Offsets, s.Indices = nil, nil
	}
	b.Sparse = nil
	b.Rows = 0
}

// --- slice and frame-buffer pools --------------------------------------
//
// All pools store pointers to slice headers. Each Put re-boxes the
// header it returns (one small fixed-size allocation — the residual
// allocs/op visible in BENCH_wire.json); the data arrays themselves,
// where the real bytes live, are fully reused across batches.

var (
	framePool = sync.Pool{New: func() any { return new([]byte) }}
	f32Pool   = sync.Pool{New: func() any { return new([]float32) }}
	i32Pool   = sync.Pool{New: func() any { return new([]int32) }}
	i64Pool   = sync.Pool{New: func() any { return new([]int64) }}
	idPool    = sync.Pool{New: func() any { return new([]schema.FeatureID) }}
)

// GetFrameBuf returns a pooled, zero-length byte buffer for frame
// encoding; grow it with AppendBinary and return it with PutFrameBuf.
func GetFrameBuf() []byte {
	return (*framePool.Get().(*[]byte))[:0]
}

// PutFrameBuf recycles a frame buffer obtained from GetFrameBuf (or any
// buffer the caller is done with).
func PutFrameBuf(buf []byte) {
	if buf == nil {
		return
	}
	buf = buf[:0]
	framePool.Put(&buf)
}

func getF32Slice(n int) []float32 {
	sp := f32Pool.Get().(*[]float32)
	if cap(*sp) < n {
		*sp = make([]float32, n)
	}
	return (*sp)[:n]
}

func putF32Slice(s []float32) {
	if s == nil {
		return
	}
	f32Pool.Put(&s)
}

func getI32Slice(n int) []int32 {
	sp := i32Pool.Get().(*[]int32)
	if cap(*sp) < n {
		*sp = make([]int32, n)
	}
	return (*sp)[:n]
}

func putI32Slice(s []int32) {
	if s == nil {
		return
	}
	i32Pool.Put(&s)
}

func getI64Slice(n int) []int64 {
	sp := i64Pool.Get().(*[]int64)
	if cap(*sp) < n {
		*sp = make([]int64, n)
	}
	return (*sp)[:n]
}

func putI64Slice(s []int64) {
	if s == nil {
		return
	}
	i64Pool.Put(&s)
}

func getIDSlice(n int) []schema.FeatureID {
	sp := idPool.Get().(*[]schema.FeatureID)
	if cap(*sp) < n {
		*sp = make([]schema.FeatureID, n)
	}
	return (*sp)[:n]
}

func putIDSlice(s []schema.FeatureID) {
	if s == nil {
		return
	}
	idPool.Put(&s)
}
