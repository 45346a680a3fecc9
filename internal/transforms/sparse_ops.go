package transforms

import (
	"fmt"
	"math/rand"
	"slices"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// --- shared row kernels --------------------------------------------------
//
// The per-row value math of the generation ops lives in append-style
// helpers used by both the legacy interpreter (Op.Apply) and the
// compiled Plan, so the two execution paths are byte-identical by
// construction: Apply feeds them per-row slices, the Plan's kernels
// feed them the output column's values array directly.

// crossInto appends the hashed Cartesian product of av×bv to dst,
// capped at maxOut pairs when maxOut > 0.
func crossInto(dst []int64, av, bv []int64, maxOut int) []int64 {
	n := len(av) * len(bv)
	if n == 0 {
		return dst
	}
	if maxOut > 0 && n > maxOut {
		n = maxOut
	}
	emitted := 0
outer:
	for _, x := range av {
		for _, y := range bv {
			if emitted >= n {
				break outer
			}
			dst = append(dst, hash64(x, y))
			emitted++
		}
	}
	return dst
}

// crossPrefixInto is crossInto for a dictionary-indexed left side: aIdx
// holds dictionary indices and pref the pre-mixed hash state of each
// distinct left value, so the left half of every pair hash is computed
// once per distinct value per stripe instead of once per pair. Output
// is bit-identical to crossInto over the materialized values.
func crossPrefixInto(dst []int64, aIdx []int64, pref []uint64, bv []int64, maxOut int) []int64 {
	n := len(aIdx) * len(bv)
	if n == 0 {
		return dst
	}
	if maxOut > 0 && n > maxOut {
		n = maxOut
	}
	emitted := 0
outer:
	for _, xi := range aIdx {
		h0 := pref[xi]
		for _, y := range bv {
			if emitted >= n {
				break outer
			}
			dst = append(dst, finish64(mix64(h0, y)))
			emitted++
		}
	}
	return dst
}

// ngramInto appends the hash of every n-length sliding window of vals
// to dst.
func ngramInto(dst []int64, vals []int64, n int) []int64 {
	for j := 0; j+n <= len(vals); j++ {
		dst = append(dst, hash64(vals[j:j+n]...))
	}
	return dst
}

// ngramPrefixInto is ngramInto for a dictionary-indexed column: idxs
// holds the row's dictionary indices, pref the pre-mixed hash state of
// each distinct value (the window head's contribution), and vals the
// row's materialized values for the window tail. Bit-identical to
// ngramInto over vals.
func ngramPrefixInto(dst []int64, idxs []int64, pref []uint64, vals []int64, n int) []int64 {
	for j := 0; j+n <= len(vals); j++ {
		h := pref[idxs[j]]
		for k := 1; k < n; k++ {
			h = mix64(h, vals[j+k])
		}
		dst = append(dst, finish64(h))
	}
	return dst
}

// intersectInto appends av∩bv to dst — membership in bv, preserving
// av's order and duplicates — using scratch as a reusable sorted
// membership buffer (replacing a per-row map[int64]bool allocation).
// It returns the extended dst and the possibly-regrown scratch.
func intersectInto(dst, av, bv, scratch []int64) ([]int64, []int64) {
	scratch = append(scratch[:0], bv...)
	slices.Sort(scratch)
	for _, v := range av {
		if _, ok := slices.BinarySearch(scratch, v); ok {
			dst = append(dst, v)
		}
	}
	return dst, scratch
}

// SigridHash hashes every categorical value into [0, MaxValue), the
// paper's canonical sparse normalization (and its headline GPU
// acceleration example: 11.9x on a V100 vs 20 CPU threads, §7.2).
type SigridHash struct {
	In, Out  schema.FeatureID
	Salt     int64
	MaxValue int64
}

// Name implements Op.
func (o *SigridHash) Name() string { return "SigridHash" }

// Class implements Op.
func (o *SigridHash) Class() Class { return SparseNorm }

// Inputs implements Op.
func (o *SigridHash) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *SigridHash) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *SigridHash) Cost() CostModel {
	return CostModel{CyclesPerValue: 48, MemBytesPerValue: 16, AccelSpeedup: 11.9}
}

// Apply implements Op.
func (o *SigridHash) Apply(b *dwrf.Batch) (int64, error) {
	if o.MaxValue <= 0 {
		return 0, fmt.Errorf("transforms: SigridHash needs positive MaxValue")
	}
	in := sparseInput(b, o.In)
	out := &dwrf.SparseColumn{
		Offsets: append([]int32(nil), in.Offsets...),
		Values:  make([]int64, len(in.Values)),
	}
	for i, v := range in.Values {
		out.Values[i] = sigridBucket(v, o.Salt, o.MaxValue)
	}
	b.SetSparse(o.Out, out)
	return int64(len(in.Values)), nil
}

// FirstX truncates each categorical list to its first X entries (sparse
// normalization by list-length capping).
type FirstX struct {
	In, Out schema.FeatureID
	X       int
}

// Name implements Op.
func (o *FirstX) Name() string { return "FirstX" }

// Class implements Op.
func (o *FirstX) Class() Class { return SparseNorm }

// Inputs implements Op.
func (o *FirstX) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *FirstX) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *FirstX) Cost() CostModel {
	return CostModel{CyclesPerValue: 10, MemBytesPerValue: 16, AccelSpeedup: 2.5}
}

// Apply implements Op.
func (o *FirstX) Apply(b *dwrf.Batch) (int64, error) {
	if o.X < 0 {
		return 0, fmt.Errorf("transforms: FirstX needs non-negative X")
	}
	in := sparseInput(b, o.In)
	out := buildSparse(b.Rows, func(i int) []int64 {
		vals := in.RowValues(i)
		if len(vals) > o.X {
			vals = vals[:o.X]
		}
		return vals
	})
	b.SetSparse(o.Out, out)
	return int64(len(in.Values)), nil
}

// PositiveModulus maps every categorical value v to v mod M, in [0, M).
type PositiveModulus struct {
	In, Out schema.FeatureID
	M       int64
}

// Name implements Op.
func (o *PositiveModulus) Name() string { return "PositiveModulus" }

// Class implements Op.
func (o *PositiveModulus) Class() Class { return SparseNorm }

// Inputs implements Op.
func (o *PositiveModulus) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *PositiveModulus) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *PositiveModulus) Cost() CostModel {
	return CostModel{CyclesPerValue: 8, MemBytesPerValue: 16, AccelSpeedup: 7}
}

// Apply implements Op.
func (o *PositiveModulus) Apply(b *dwrf.Batch) (int64, error) {
	if o.M <= 0 {
		return 0, fmt.Errorf("transforms: PositiveModulus needs positive modulus")
	}
	in := sparseInput(b, o.In)
	out := &dwrf.SparseColumn{
		Offsets: append([]int32(nil), in.Offsets...),
		Values:  make([]int64, len(in.Values)),
	}
	for i, v := range in.Values {
		out.Values[i] = positiveMod(v, o.M)
	}
	b.SetSparse(o.Out, out)
	return int64(len(in.Values)), nil
}

// Enumerate replaces each list with the positions 0..len-1, as Python's
// enumerate.
type Enumerate struct {
	In, Out schema.FeatureID
}

// Name implements Op.
func (o *Enumerate) Name() string { return "Enumerate" }

// Class implements Op.
func (o *Enumerate) Class() Class { return SparseNorm }

// Inputs implements Op.
func (o *Enumerate) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *Enumerate) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *Enumerate) Cost() CostModel {
	return CostModel{CyclesPerValue: 5, MemBytesPerValue: 16, AccelSpeedup: 4}
}

// Apply implements Op.
func (o *Enumerate) Apply(b *dwrf.Batch) (int64, error) {
	in := sparseInput(b, o.In)
	out := buildSparse(b.Rows, func(i int) []int64 {
		n := len(in.RowValues(i))
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64(j)
		}
		return vals
	})
	b.SetSparse(o.Out, out)
	return int64(len(in.Values)), nil
}

// MapId remaps categorical IDs through a fixed table; unmapped IDs fall
// back to Default.
type MapId struct {
	In, Out schema.FeatureID
	Mapping map[int64]int64
	Default int64
}

// Name implements Op.
func (o *MapId) Name() string { return "MapId" }

// Class implements Op.
func (o *MapId) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *MapId) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *MapId) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *MapId) Cost() CostModel {
	return CostModel{CyclesPerValue: 60, MemBytesPerValue: 32, AccelSpeedup: 1.5}
}

// Apply implements Op.
func (o *MapId) Apply(b *dwrf.Batch) (int64, error) {
	in := sparseInput(b, o.In)
	out := &dwrf.SparseColumn{
		Offsets: append([]int32(nil), in.Offsets...),
		Values:  make([]int64, len(in.Values)),
	}
	for i, v := range in.Values {
		if mapped, ok := o.Mapping[v]; ok {
			out.Values[i] = mapped
		} else {
			out.Values[i] = o.Default
		}
	}
	b.SetSparse(o.Out, out)
	return int64(len(in.Values)), nil
}

// IdListTransform intersects two categorical lists row-wise.
type IdListTransform struct {
	A, B, Out schema.FeatureID
}

// Name implements Op.
func (o *IdListTransform) Name() string { return "IdListTransform" }

// Class implements Op.
func (o *IdListTransform) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *IdListTransform) Inputs() []schema.FeatureID { return []schema.FeatureID{o.A, o.B} }

// Output implements Op.
func (o *IdListTransform) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *IdListTransform) Cost() CostModel {
	return CostModel{CyclesPerValue: 70, MemBytesPerValue: 40, AccelSpeedup: 2}
}

// Apply implements Op. Only the interpreter (Graph.Run) calls it; a
// compiled plan intersects with its exec's scratch.
func (o *IdListTransform) Apply(b *dwrf.Batch) (int64, error) {
	a := sparseInput(b, o.A)
	bb := sparseInput(b, o.B)
	var scratch []int64 // sorted membership buffer, shared by every row
	var processed int64
	out := buildSparse(b.Rows, func(i int) []int64 {
		av, bv := a.RowValues(i), bb.RowValues(i)
		processed += int64(len(av) + len(bv))
		if len(av) == 0 || len(bv) == 0 {
			return nil
		}
		var inter []int64
		inter, scratch = intersectInto(nil, av, bv, scratch)
		return inter
	})
	b.SetSparse(o.Out, out)
	return processed, nil
}

// Cartesian computes the Cartesian product of two categorical lists,
// hashing each pair into a new ID — the classic (and expensive)
// cross-feature generator.
type Cartesian struct {
	A, B, Out schema.FeatureID
	// MaxOutput caps the per-row product size; 0 means unlimited.
	MaxOutput int
}

// Name implements Op.
func (o *Cartesian) Name() string { return "Cartesian" }

// Class implements Op.
func (o *Cartesian) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *Cartesian) Inputs() []schema.FeatureID { return []schema.FeatureID{o.A, o.B} }

// Output implements Op.
func (o *Cartesian) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *Cartesian) Cost() CostModel {
	return CostModel{CyclesPerValue: 90, MemBytesPerValue: 48, AccelSpeedup: 3}
}

// Apply implements Op. The processed-value count is the number of output
// pairs (the work actually done).
func (o *Cartesian) Apply(b *dwrf.Batch) (int64, error) {
	a := sparseInput(b, o.A)
	bb := sparseInput(b, o.B)
	var processed int64
	out := buildSparse(b.Rows, func(i int) []int64 {
		vals := crossInto(nil, a.RowValues(i), bb.RowValues(i), o.MaxOutput)
		processed += int64(len(vals))
		return vals
	})
	b.SetSparse(o.Out, out)
	return processed, nil
}

// NGram hashes every n-length sliding window of a categorical list into a
// new ID.
type NGram struct {
	In, Out schema.FeatureID
	N       int
}

// Name implements Op.
func (o *NGram) Name() string { return "NGram" }

// Class implements Op.
func (o *NGram) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *NGram) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *NGram) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *NGram) Cost() CostModel {
	return CostModel{CyclesPerValue: 85, MemBytesPerValue: 40, AccelSpeedup: 3.5}
}

// Apply implements Op.
func (o *NGram) Apply(b *dwrf.Batch) (int64, error) {
	if o.N <= 0 {
		return 0, fmt.Errorf("transforms: NGram needs positive N")
	}
	in := sparseInput(b, o.In)
	var processed int64
	out := buildSparse(b.Rows, func(i int) []int64 {
		grams := ngramInto(nil, in.RowValues(i), o.N)
		processed += int64(len(grams) * o.N)
		return grams
	})
	b.SetSparse(o.Out, out)
	return processed, nil
}

// ComputeScore derives a score list from a categorical list via an affine
// transform of each value ("arithmetic operations on sparse features").
type ComputeScore struct {
	In, Out schema.FeatureID
	ScaleA  float32
	BiasB   float32
}

// Name implements Op.
func (o *ComputeScore) Name() string { return "ComputeScore" }

// Class implements Op.
func (o *ComputeScore) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *ComputeScore) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *ComputeScore) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *ComputeScore) Cost() CostModel {
	return CostModel{CyclesPerValue: 20, MemBytesPerValue: 28, AccelSpeedup: 8}
}

// scored is the op's per-value kernel, shared by Apply and the compiled
// Plan.
func (o *ComputeScore) scored(v int64) schema.ScoredValue {
	return schema.ScoredValue{
		Value: v,
		Score: o.ScaleA*float32(v%1000)/1000 + o.BiasB,
	}
}

// Apply implements Op.
func (o *ComputeScore) Apply(b *dwrf.Batch) (int64, error) {
	in := sparseInput(b, o.In)
	col := &dwrf.ScoreListColumn{Offsets: append([]int32(nil), in.Offsets...)}
	col.Values = make([]schema.ScoredValue, len(in.Values))
	for i, v := range in.Values {
		col.Values[i] = o.scored(v)
	}
	b.SetScoreList(o.Out, col)
	return int64(len(in.Values)), nil
}

// Bucketize shards a dense feature into categorical buckets using
// explicit borders.
type Bucketize struct {
	In, Out schema.FeatureID
	Borders []float32
}

// Name implements Op.
func (o *Bucketize) Name() string { return "Bucketize" }

// Class implements Op.
func (o *Bucketize) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *Bucketize) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *Bucketize) Output() schema.FeatureID { return o.Out }

// Cost implements Op. Bucketize is the paper's example of an op that
// barely benefits from GPUs (1.3x, §7.2).
func (o *Bucketize) Cost() CostModel {
	return CostModel{CyclesPerValue: 35, MemBytesPerValue: 12, AccelSpeedup: 1.3}
}

// validate checks the border configuration (shared with plan compile).
func (o *Bucketize) validate() error {
	if len(o.Borders) == 0 {
		return fmt.Errorf("transforms: Bucketize needs borders")
	}
	for i := 1; i < len(o.Borders); i++ {
		if o.Borders[i] <= o.Borders[i-1] {
			return fmt.Errorf("transforms: Bucketize borders not strictly increasing")
		}
	}
	return nil
}

// bucketOf is the op's scalar kernel, shared by Apply and the compiled
// Plan.
func (o *Bucketize) bucketOf(v float32) int64 {
	bucket := int64(len(o.Borders)) // above all borders
	for j, border := range o.Borders {
		if v < border {
			bucket = int64(j)
			break
		}
	}
	return bucket
}

// Apply implements Op.
func (o *Bucketize) Apply(b *dwrf.Batch) (int64, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	in := denseInput(b, o.In)
	out := buildSparse(b.Rows, func(i int) []int64 {
		if !in.Present[i] {
			return nil
		}
		return []int64{o.bucketOf(in.Values[i])}
	})
	b.SetSparse(o.Out, out)
	return int64(b.Rows), nil
}

// Sampling randomly keeps each row with probability Rate, rebuilding all
// columns (the row-level op of Table 11).
type Sampling struct {
	Rate float64
	Seed int64
}

// Name implements Op.
func (o *Sampling) Name() string { return "Sampling" }

// Class implements Op.
func (o *Sampling) Class() Class { return RowOp }

// Inputs implements Op.
func (o *Sampling) Inputs() []schema.FeatureID { return nil }

// Output implements Op.
func (o *Sampling) Output() schema.FeatureID { return 0 }

// Cost implements Op.
func (o *Sampling) Cost() CostModel {
	return CostModel{CyclesPerValue: 4, MemBytesPerValue: 16, AccelSpeedup: 1}
}

// Apply implements Op. It mutates the batch to contain only the kept
// rows.
func (o *Sampling) Apply(b *dwrf.Batch) (int64, error) {
	if o.Rate < 0 || o.Rate > 1 {
		return 0, fmt.Errorf("transforms: Sampling rate %v out of [0,1]", o.Rate)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	keep := make([]int, 0, b.Rows)
	for i := 0; i < b.Rows; i++ {
		if rng.Float64() < o.Rate {
			keep = append(keep, i)
		}
	}
	processed := int64(b.Rows)

	newLabels := make([]float32, len(keep))
	for ni, oi := range keep {
		newLabels[ni] = b.Labels[oi]
	}
	for id, col := range b.Dense {
		nc := &dwrf.DenseColumn{Present: make([]bool, len(keep)), Values: make([]float32, len(keep))}
		for ni, oi := range keep {
			nc.Present[ni] = col.Present[oi]
			nc.Values[ni] = col.Values[oi]
		}
		b.SetDense(id, nc)
	}
	for id, col := range b.Sparse {
		nc := buildSparse(len(keep), func(ni int) []int64 { return col.RowValues(keep[ni]) })
		if col.IsDict() {
			// RowValues of a dictionary-indexed column are indices; the
			// rebuilt column keeps the representation, so carry the
			// dictionary (copied — a column owns its buffers).
			nc.Dict = append([]int64(nil), col.Dict...)
		}
		b.SetSparse(id, nc)
	}
	for id, col := range b.ScoreList {
		nc := &dwrf.ScoreListColumn{Offsets: make([]int32, len(keep)+1)}
		for ni, oi := range keep {
			nc.Offsets[ni] = int32(len(nc.Values))
			nc.Values = append(nc.Values, col.RowValues(oi)...)
		}
		nc.Offsets[len(keep)] = int32(len(nc.Values))
		b.SetScoreList(id, nc)
	}
	b.Rows = len(keep)
	b.Labels = newLabels
	return processed, nil
}
