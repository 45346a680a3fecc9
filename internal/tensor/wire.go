package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dsi/internal/freelist"
	"dsi/internal/schema"
)

// This file is the explicit wire codec for Batch: length-prefixed,
// little-endian flat-binary frames, replacing reflection-driven gob on
// the worker→trainer data plane (the "datacenter tax" of §6.2 — the
// paper attributes a large share of DPP worker cycles to (de)serializing
// every training byte). Encoding is a single append pass into a caller
// (or recycled) buffer — AppendBinary from a Batch, FrameWriter
// straight from a transformed split; decoding validates every count
// against the remaining bytes before allocating, draws every slice of
// the batch from one recycled slab, and hands the slab back whole through
// Batch.Release, so a steady-state trainer stream costs one small
// allocation (the Batch header) per batch.
//
// Frame layout (all integers little-endian):
//
//	u32  magic "TBF2"
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
//	  u8   index width w, 1..8: the bytes the tensor's largest index
//	       needs (at least 1; a negative index needs all 8)
//	  i32  × rows+1   CSR offsets (0 ≤ monotone ≤ nIndices, ends at nIndices)
//	  w-byte unsigned × nIndices indices
//
// Every index the standard transform graph emits is a bucket below
// 2^20, so w is at most 3 where the first frame version spent 8 bytes
// an index. The width is a function of the batch alone: a decoder
// refuses a width wider than the tensor's largest index needs, so each
// batch has exactly one encoding and EncodedSize is exact for a decoded
// batch.
//
// A frame decodes to a structurally valid batch or fails: label/offset/
// matrix shapes are enforced here so no downstream consumer (ContentSum,
// SizeBytes, SparseTensor.Row) can be driven out of bounds by corrupt or
// adversarial bytes.

// frameMagic identifies tensor batch frames ("TBF2").
const frameMagic uint32 = 'T' | 'B'<<8 | 'F'<<16 | '2'<<24

// frameHeaderLen is the fixed-size portion of a frame.
const frameHeaderLen = 7 * 4

// sparseHeaderLen is a sparse tensor's fixed prefix: feature ID,
// nIndices and the index width.
const sparseHeaderLen = 4 + 4 + 1

// indexWidth is the bytes an index needs when or is the bitwise OR of
// every index of its tensor: the largest index's byte length, at least
// one, and all eight for a negative index (its sign bit is set).
func indexWidth(or uint64) int {
	return max(1, (bits.Len64(or)+7)/8)
}

// indicesOr folds a tensor's indices into the OR indexWidth reads.
func indicesOr(indices []int64) uint64 {
	var or uint64
	for _, idx := range indices {
		or |= uint64(idx)
	}
	return or
}

// EncodedSize reports the exact frame length AppendBinary will produce.
func (b *Batch) EncodedSize() int {
	n := frameHeaderLen
	n += 4 * len(b.DenseFeatureIDs)
	n += 4 * len(b.Labels)
	if b.Dense != nil {
		n += 4 * len(b.Dense.Data)
	}
	for _, s := range b.Sparse {
		n += sparseHeaderLen + 4*len(s.Offsets) + indexWidth(indicesOr(s.Indices))*len(s.Indices)
	}
	return n
}

// AppendBinary appends the batch as one self-delimiting frame and
// returns the extended buffer. Encode into a recycled buffer (GetFrameBuf)
// to make the hot path allocation-free.
func (b *Batch) AppendBinary(dst []byte) []byte {
	size := b.EncodedSize()
	start := len(dst)
	// Eight spare bytes: indices are stored a whole word at a time.
	dst = slices.Grow(dst, size+8)[:start+size+8]
	p := dst[start:]
	le := binary.LittleEndian
	hasDense, cells := 0, []float32(nil)
	if b.Dense != nil {
		hasDense, cells = 1, b.Dense.Data
	}
	p = putHeader(p, size, b.Rows, b.DenseFeatureIDs, len(b.Labels), hasDense, len(b.Sparse))
	p = putFloats(p, b.Labels)
	p = putFloats(p, cells)
	for _, s := range b.Sparse {
		w := indexWidth(indicesOr(s.Indices))
		p = putSparseHeader(p, s.Feature, len(s.Indices), w)
		for i, off := range s.Offsets {
			le.PutUint32(p[4*i:], uint32(off))
		}
		p = p[4*len(s.Offsets):]
		p = putIndices(p, s.Indices, w)
	}
	return dst[:start+size]
}

// putHeader stores a frame's fixed header and its dense feature IDs at
// the front of p and returns the rest of p.
func putHeader(p []byte, size, rows int, denseIDs []schema.FeatureID, nLabels, hasDense, nSparse int) []byte {
	for i, v := range [...]int{int(frameMagic), size, rows, len(denseIDs), nLabels, hasDense, nSparse} {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(v))
	}
	p = p[frameHeaderLen:]
	for i, id := range denseIDs {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(int32(id)))
	}
	return p[4*len(denseIDs):]
}

// putSparseHeader stores a sparse tensor's prefix at the front of p and
// returns the rest of p.
func putSparseHeader(p []byte, feature schema.FeatureID, nIndices, w int) []byte {
	binary.LittleEndian.PutUint32(p, uint32(int32(feature)))
	binary.LittleEndian.PutUint32(p[4:], uint32(nIndices))
	p[8] = byte(w)
	return p[sparseHeaderLen:]
}

// putFloats stores vals at the front of p and returns the rest of p.
func putFloats(p []byte, vals []float32) []byte {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
	}
	return p[4*len(vals):]
}

// putIndices stores each index in its low w bytes at the front of p and
// returns the rest of p. It writes a whole word per index, so p must
// have eight bytes past the last one.
func putIndices(p []byte, indices []int64, w int) []byte {
	for i, v := range indices {
		binary.LittleEndian.PutUint64(p[i*w:], uint64(v))
	}
	return p[len(indices)*w:]
}

// loadIndices reads len(dst) w-byte indices from the front of p into
// dst and returns their bitwise OR. While a whole word is left in p it
// loads a word per index and masks it to w bytes.
func loadIndices(dst []int64, p []byte, w int) uint64 {
	mask := ^uint64(0) >> (64 - 8*w)
	var or uint64
	i := 0
	for ; i < len(dst) && i*w+8 <= len(p); i++ {
		v := binary.LittleEndian.Uint64(p[i*w:]) & mask
		dst[i] = int64(v)
		or |= v
	}
	for ; i < len(dst); i++ {
		var v uint64
		for j := w - 1; j >= 0; j-- {
			v = v<<8 | uint64(p[i*w+j])
		}
		dst[i] = int64(v)
		or |= v
	}
	return or
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

// checkCount validates that count elements of size elem bytes fit in the
// remaining frame, so corrupt counts can never force an allocation larger
// than the input itself.
func (r *frameReader) checkCount(count uint64, elem int, what string) error {
	if count*uint64(elem) > uint64(r.remaining()) {
		return fmt.Errorf("tensor: frame claims %d %s (%d bytes) with %d remaining", count, what, count*uint64(elem), r.remaining())
	}
	return nil
}

// DecodeBinary decodes one frame from the front of data, returning the
// batch and the number of bytes consumed. Every slice of the decoded
// batch comes from one recycled slab; call Batch.Release when the
// consumer is finished with the tensors to recycle it. DecodeBinary
// never panics on arbitrary input: every count is validated against
// the frame's bytes before the slab is sized, and the decoded batch is
// structurally checked (label/matrix/CSR shapes, minimal index widths)
// before it is returned.
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
	var hdr [5]uint32 // rows, nDense, nLabels, hasDense, nSparse
	for i := range hdr {
		if hdr[i], err = r.u32(); err != nil {
			return nil, 0, err
		}
	}
	rows, nDense, nLabels, hasDense, nSparse := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]
	if hasDense > 1 {
		return nil, 0, fmt.Errorf("tensor: frame hasDense = %d", hasDense)
	}
	if nLabels != rows {
		return nil, 0, fmt.Errorf("tensor: frame has %d labels for %d rows", nLabels, rows)
	}
	if hasDense == 0 && nDense != 0 {
		return nil, 0, fmt.Errorf("tensor: frame names %d dense features without a matrix", nDense)
	}
	cells := uint64(rows) * uint64(nDense) * uint64(hasDense)
	if err := r.checkCount(uint64(nDense)+uint64(nLabels)+cells, 4, "dense IDs, labels and cells"); err != nil {
		return nil, 0, err
	}
	body := r.pos // where the dense feature IDs start

	// Walk the sparse headers once to size the slab: every count and
	// width is checked against the bytes left before anything is drawn.
	r.pos += 4 * int(uint64(nDense)+uint64(nLabels)+cells)
	nOffsets := uint64(rows) + 1
	var nIdx uint64
	for si := uint32(0); si < nSparse; si++ {
		if err := r.checkCount(1, sparseHeaderLen, "sparse headers"); err != nil {
			return nil, 0, err
		}
		n := uint64(binary.LittleEndian.Uint32(r.data[r.pos+4:]))
		w := int(r.data[r.pos+8])
		if w < 1 || w > 8 {
			return nil, 0, fmt.Errorf("tensor: frame sparse %d index width %d outside [1,8]", si, w)
		}
		r.pos += sparseHeaderLen
		if err := r.checkCount(nOffsets, 4, "sparse offsets"); err != nil {
			return nil, 0, err
		}
		r.pos += 4 * int(nOffsets)
		if err := r.checkCount(n, w, "sparse indices"); err != nil {
			return nil, 0, err
		}
		r.pos += int(n) * w
		nIdx += n
	}
	if r.pos != int(frameLen) {
		return nil, 0, fmt.Errorf("tensor: frame length %d but payload ends at %d", frameLen, r.pos)
	}

	s := getSlab(int(nDense), int(uint64(nLabels)+cells), int(uint64(nSparse)*nOffsets), int(nIdx), int(nSparse))
	b := &Batch{Rows: int(rows), slab: s}
	p := r.data[body:]
	b.DenseFeatureIDs = s.ids[:nDense:nDense]
	for i := range b.DenseFeatureIDs {
		b.DenseFeatureIDs[i] = schema.FeatureID(int32(binary.LittleEndian.Uint32(p[4*i:])))
	}
	p = p[4*nDense:]
	f32 := s.f32[:uint64(nLabels)+cells]
	for i := range f32 {
		f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	p = p[4*len(f32):]
	b.Labels = f32[:nLabels:nLabels]
	if hasDense == 1 {
		s.dense = Dense2D{Rows: int(rows), Cols: int(nDense), Data: f32[nLabels:]}
		b.Dense = &s.dense
	}
	b.Sparse = s.ptrs[:nSparse:nSparse]
	offs, idxs := s.i32, s.i64
	for si, st := range b.Sparse {
		n := binary.LittleEndian.Uint32(p[4:])
		w := int(p[8])
		*st = SparseTensor{
			Feature: schema.FeatureID(int32(binary.LittleEndian.Uint32(p))),
			Offsets: offs[:nOffsets:nOffsets],
			Indices: idxs[:n:n],
		}
		offs, idxs = offs[nOffsets:], idxs[n:]
		p = p[sparseHeaderLen:]
		prev := int32(0)
		for i := range st.Offsets {
			off := int32(binary.LittleEndian.Uint32(p[4*i:]))
			if off < prev {
				b.Release()
				return nil, 0, fmt.Errorf("tensor: frame sparse %d offsets not monotone", si)
			}
			st.Offsets[i], prev = off, off
		}
		p = p[4*nOffsets:]
		if st.Offsets[0] != 0 || uint32(st.Offsets[rows]) != n {
			b.Release()
			return nil, 0, fmt.Errorf("tensor: frame sparse %d CSR bounds [%d,%d] for %d indices", si, st.Offsets[0], st.Offsets[rows], n)
		}
		or := loadIndices(st.Indices, p, w)
		p = p[int(n)*w:]
		if need := indexWidth(or); w != need {
			b.Release()
			return nil, 0, fmt.Errorf("tensor: frame sparse %d stores %d-byte indices whose largest needs %d", si, w, need)
		}
	}
	return b, int(frameLen), nil
}

// Release returns a decoded batch's slab to the codec pool. It is a
// no-op for batches not produced by DecodeBinary (Materialize,
// literals), so consumers can call it unconditionally after loading a
// batch; releasing twice is also safe. The batch must not be used after
// Release.
func (b *Batch) Release() {
	if b == nil || b.slab == nil {
		return
	}
	s := b.slab
	b.slab = nil
	b.Rows = 0
	b.DenseFeatureIDs, b.Labels, b.Dense, b.Sparse = nil, nil, nil, nil
	slabs.Put(s)
}

// --- the decode slab and the frame-buffer free list ---------------------

// slab holds every slice of one decoded batch: the dense feature IDs,
// the labels followed by the dense matrix, all sparse offsets and all
// indices back to back, the sparse tensors and their pointers. Slabs
// recycle on a free list, and their arrays only grow.
type slab struct {
	ids     []schema.FeatureID
	f32     []float32
	i32     []int32
	i64     []int64
	tensors []SparseTensor
	ptrs    []*SparseTensor
	dense   Dense2D
}

var slabs freelist.List[*slab]

// getSlab draws a slab with room for the given element counts.
func getSlab(ids, f32, i32, i64, sparse int) *slab {
	s, ok := slabs.Get()
	if !ok {
		s = new(slab)
	}
	s.ids = grow(s.ids, ids)
	s.f32 = grow(s.f32, f32)
	s.i32 = grow(s.i32, i32)
	s.i64 = grow(s.i64, i64)
	if cap(s.tensors) < sparse {
		s.tensors = make([]SparseTensor, sparse)
		s.ptrs = make([]*SparseTensor, sparse)
		for i := range s.ptrs {
			s.ptrs[i] = &s.tensors[i]
		}
	}
	return s
}

// grow returns s with length n, reallocating only when its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var frameBufs freelist.List[[]byte]

// GetFrameBuf returns a recycled, zero-length byte buffer for frame
// encoding; grow it with AppendBinary and return it with PutFrameBuf.
func GetFrameBuf() []byte {
	buf, _ := frameBufs.Get()
	return buf[:0]
}

// PutFrameBuf recycles a frame buffer obtained from GetFrameBuf.
func PutFrameBuf(buf []byte) {
	if buf == nil {
		return
	}
	frameBufs.Put(buf[:0])
}
