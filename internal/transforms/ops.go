// Package transforms implements the online preprocessing transformations
// of Table 11: the sixteen production DLRM operations, grouped into the
// paper's three classes (dense normalization, sparse normalization, and
// feature generation), plus the DAG executor that chains them per feature
// (§6.4, §7.2).
//
// Ops run for real on columnar batches (dwrf.Batch). Alongside the actual
// computation, each op carries a cost model — cycles and memory traffic
// per value — calibrated so that the class-level cycle split matches the
// paper's ≈5% dense-norm / 20% sparse-norm / 75% feature-generation
// breakdown, and an accelerator speedup factor from §7.2's GPU
// measurements.
//
// The graph executes two ways: Graph.Run interprets the ops (each Apply
// resolves features through the batch maps and allocates fresh output
// columns — the measurable baseline), while Graph.CompilePlan lowers
// the DAG into a slot-indexed Plan whose kernels walk flat slot arrays
// and write into dwrf.Arena-recycled columns (see plan.go). The two
// paths are byte-identical by construction: the per-value math lives in
// kernels shared between Apply and the Plan, pinned by the parity suite
// in plan_test.go. Ops must never retain column slices across batches —
// arena-backed batches recycle their buffers on Release.
package transforms

import (
	"fmt"
	"math"
	"math/bits"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// Class is the paper's transformation taxonomy (§6.4).
type Class int

const (
	// DenseNorm normalizes continuous features (Logit, BoxCox, Onehot,
	// Clamp); ≈5% of transform cycles.
	DenseNorm Class = iota
	// SparseNorm normalizes categorical lists (SigridHash, FirstX);
	// ≈20% of transform cycles.
	SparseNorm
	// FeatureGen derives new features from raw ones (Bucketize, NGram,
	// MapId, Cartesian, ...); ≈75% of transform cycles.
	FeatureGen
	// RowOp operates on whole rows (Sampling).
	RowOp

	// numClasses sizes the per-class arrays in Stats; it stays last.
	numClasses = iota
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DenseNorm:
		return "dense-norm"
	case SparseNorm:
		return "sparse-norm"
	case FeatureGen:
		return "feature-gen"
	case RowOp:
		return "row-op"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// CostModel describes an op's resource intensity.
type CostModel struct {
	// CyclesPerValue is the CPU cost per input value processed.
	CyclesPerValue float64
	// MemBytesPerValue is memory traffic per input value (reads+writes),
	// feeding the §6.3 memory-bandwidth analysis.
	MemBytesPerValue float64
	// AccelSpeedup is the measured GPU:CPU throughput ratio from §7.2
	// (e.g. 11.9 for SigridHash, 1.3 for Bucketize); 1 means no benefit.
	AccelSpeedup float64
}

// Op is one transformation node. Apply mutates the batch in place,
// producing the Output feature, and returns the number of input values
// processed (the basis for cost accounting).
type Op interface {
	Name() string
	Class() Class
	Inputs() []schema.FeatureID
	Output() schema.FeatureID
	Cost() CostModel
	Apply(b *dwrf.Batch) (values int64, err error)
}

// --- column helpers ------------------------------------------------------

// denseInput fetches a dense column, treating a missing column as
// all-absent (coverage < 1 means stripes may lack a feature entirely).
func denseInput(b *dwrf.Batch, id schema.FeatureID) *dwrf.DenseColumn {
	if c, ok := b.Dense[id]; ok {
		return c
	}
	return &dwrf.DenseColumn{Present: make([]bool, b.Rows), Values: make([]float32, b.Rows)}
}

func sparseInput(b *dwrf.Batch, id schema.FeatureID) *dwrf.SparseColumn {
	if c, ok := b.Sparse[id]; ok {
		return c
	}
	return &dwrf.SparseColumn{Offsets: make([]int32, b.Rows+1)}
}

// buildSparse assembles a ragged column from per-row value slices.
func buildSparse(rows int, perRow func(i int) []int64) *dwrf.SparseColumn {
	col := &dwrf.SparseColumn{Offsets: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		col.Offsets[i] = int32(len(col.Values))
		col.Values = append(col.Values, perRow(i)...)
	}
	col.Offsets[rows] = int32(len(col.Values))
	return col
}

// The ID hash folds one int64 per step with a single 64×64→128-bit
// multiply, in the wyhash/mum style.
const (
	// hashSeed is the state every hash starts from.
	hashSeed uint64 = 0xe7037ed1a0b428db
	// hashMul is the odd multiplier of every fold.
	hashMul uint64 = 0xa0761d6478bd642f
)

// mix64 folds one int64 into a running hash state: h^v times hashMul,
// the 128-bit product's high and low words XORed together. Exposed
// separately from hash64 so dictionary-aware kernels can pre-mix a hash
// prefix once per DISTINCT value (Cartesian's left side, NGram's window
// head) and finish per occurrence — the split keeps those outputs
// bit-identical to hash64 over the full argument list.
func mix64(h uint64, v int64) uint64 {
	hi, lo := bits.Mul64(h^uint64(v), hashMul)
	return hi ^ lo
}

// finish64 masks a final hash state into the non-negative int64 ID
// space.
func finish64(h uint64) int64 { return int64(h & 0x7fffffffffffffff) }

// hash64 hashes ints into the non-negative int64 ID space (Cartesian's
// pairs, NGram's windows).
func hash64(parts ...int64) int64 {
	h := hashSeed
	for _, p := range parts {
		h = mix64(h, p)
	}
	return finish64(h)
}

// sigridBucket is SigridHash's per-value kernel, shared by Apply and the
// compiled Plan: v and salt hashed, then the full 64-bit state reduced
// into [0, m) by Lemire's multiply-shift — the high word of state×m —
// instead of a division. It must not take the 63-bit finish64 value,
// which would only reach [0, m/2). m must be positive.
func sigridBucket(v, salt, m int64) int64 {
	hi, _ := bits.Mul64(mix64(mix64(hashSeed, v), salt), uint64(m))
	return int64(hi)
}

// positiveMod is PositiveModulus's per-value kernel, shared by Apply and
// the compiled Plan: v mod m in [0, m) with one division, exact for
// every int64 v and positive m.
func positiveMod(v, m int64) int64 {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}

// denseMapper is an elementwise dense→dense op: output presence mirrors
// input presence and each present value maps through a scalar kernel.
// The compiled Plan fuses chains of these into a single pass over the
// rows (see plan.go); the interpreter runs them through applyDenseMap.
type denseMapper interface {
	Op
	// mapIn is the single dense input feature.
	mapIn() schema.FeatureID
	// mapValue transforms one present value.
	mapValue(float32) float32
	// validateMap checks the op's configuration.
	validateMap() error
}

// applyDenseMap is the interpreter's executor for denseMapper ops.
func applyDenseMap(b *dwrf.Batch, o denseMapper, out schema.FeatureID) (int64, error) {
	if err := o.validateMap(); err != nil {
		return 0, err
	}
	in := denseInput(b, o.mapIn())
	col := &dwrf.DenseColumn{Present: make([]bool, b.Rows), Values: make([]float32, b.Rows)}
	for i := 0; i < b.Rows; i++ {
		if !in.Present[i] {
			continue
		}
		col.Present[i] = true
		col.Values[i] = o.mapValue(in.Values[i])
	}
	b.SetDense(out, col)
	return int64(b.Rows), nil
}

// --- dense normalization ops ---------------------------------------------

// Logit applies the logit transform log(p/(1-p)) for normalization.
type Logit struct {
	In, Out schema.FeatureID
	// Eps clamps inputs into (Eps, 1-Eps) before the transform.
	Eps float32
}

// Name implements Op.
func (o *Logit) Name() string { return "Logit" }

// Class implements Op.
func (o *Logit) Class() Class { return DenseNorm }

// Inputs implements Op.
func (o *Logit) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *Logit) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *Logit) Cost() CostModel {
	return CostModel{CyclesPerValue: 24, MemBytesPerValue: 8, AccelSpeedup: 4}
}

// mapValue is the op's scalar kernel, shared by Apply and the compiled
// Plan (which fuses chains of these elementwise maps into one pass).
func (o *Logit) mapValue(p float32) float32 {
	eps := o.Eps
	if eps <= 0 {
		eps = 1e-6
	}
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return float32(math.Log(float64(p) / float64(1-p)))
}

// mapIn implements denseMapper.
func (o *Logit) mapIn() schema.FeatureID { return o.In }

// validateMap implements denseMapper.
func (o *Logit) validateMap() error { return nil }

// Apply implements Op.
func (o *Logit) Apply(b *dwrf.Batch) (int64, error) {
	return applyDenseMap(b, o, o.Out)
}

// BoxCox applies the Box-Cox power transform for normalization.
type BoxCox struct {
	In, Out schema.FeatureID
	Lambda  float64
}

// Name implements Op.
func (o *BoxCox) Name() string { return "BoxCox" }

// Class implements Op.
func (o *BoxCox) Class() Class { return DenseNorm }

// Inputs implements Op.
func (o *BoxCox) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *BoxCox) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *BoxCox) Cost() CostModel {
	return CostModel{CyclesPerValue: 40, MemBytesPerValue: 8, AccelSpeedup: 5}
}

// mapValue is the op's scalar kernel, shared by Apply and the compiled
// Plan.
func (o *BoxCox) mapValue(v float32) float32 {
	x := float64(v)
	if x <= 0 {
		x = 1e-9
	}
	if o.Lambda == 0 {
		return float32(math.Log(x))
	}
	return float32((math.Pow(x, o.Lambda) - 1) / o.Lambda)
}

// mapIn implements denseMapper.
func (o *BoxCox) mapIn() schema.FeatureID { return o.In }

// validateMap implements denseMapper.
func (o *BoxCox) validateMap() error { return nil }

// Apply implements Op.
func (o *BoxCox) Apply(b *dwrf.Batch) (int64, error) {
	return applyDenseMap(b, o, o.Out)
}

// Onehot encodes a dense feature into a categorical bucket index.
type Onehot struct {
	In, Out schema.FeatureID
	Buckets int
	Min     float32
	Max     float32
}

// Name implements Op.
func (o *Onehot) Name() string { return "Onehot" }

// Class implements Op.
func (o *Onehot) Class() Class { return DenseNorm }

// Inputs implements Op.
func (o *Onehot) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *Onehot) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *Onehot) Cost() CostModel {
	return CostModel{CyclesPerValue: 16, MemBytesPerValue: 12, AccelSpeedup: 6}
}

// bucketIndex is the op's scalar kernel, shared by Apply and the
// compiled Plan.
func (o *Onehot) bucketIndex(v float32) int64 {
	span := o.Max - o.Min
	if span <= 0 {
		span = 1
	}
	f := (v - o.Min) / span
	idx := int64(f * float32(o.Buckets))
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(o.Buckets) {
		idx = int64(o.Buckets) - 1
	}
	return idx
}

// Apply implements Op.
func (o *Onehot) Apply(b *dwrf.Batch) (int64, error) {
	if o.Buckets <= 0 {
		return 0, fmt.Errorf("transforms: Onehot needs positive bucket count")
	}
	in := denseInput(b, o.In)
	col := buildSparse(b.Rows, func(i int) []int64 {
		if !in.Present[i] {
			return nil
		}
		return []int64{o.bucketIndex(in.Values[i])}
	})
	b.SetSparse(o.Out, col)
	return int64(b.Rows), nil
}

// Clamp bounds a dense feature into [Lo, Hi], as std::clamp.
type Clamp struct {
	In, Out schema.FeatureID
	Lo, Hi  float32
}

// Name implements Op.
func (o *Clamp) Name() string { return "Clamp" }

// Class implements Op.
func (o *Clamp) Class() Class { return DenseNorm }

// Inputs implements Op.
func (o *Clamp) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *Clamp) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *Clamp) Cost() CostModel {
	return CostModel{CyclesPerValue: 6, MemBytesPerValue: 8, AccelSpeedup: 3}
}

// mapValue is the op's scalar kernel, shared by Apply and the compiled
// Plan.
func (o *Clamp) mapValue(v float32) float32 {
	if v < o.Lo {
		v = o.Lo
	}
	if v > o.Hi {
		v = o.Hi
	}
	return v
}

// mapIn implements denseMapper.
func (o *Clamp) mapIn() schema.FeatureID { return o.In }

// validateMap implements denseMapper.
func (o *Clamp) validateMap() error {
	if o.Lo > o.Hi {
		return fmt.Errorf("transforms: Clamp lo %v > hi %v", o.Lo, o.Hi)
	}
	return nil
}

// Apply implements Op.
func (o *Clamp) Apply(b *dwrf.Batch) (int64, error) {
	return applyDenseMap(b, o, o.Out)
}

// GetLocalHour converts a unix-seconds dense feature into the local hour
// of day given a fixed UTC offset.
type GetLocalHour struct {
	In, Out       schema.FeatureID
	OffsetMinutes int
}

// Name implements Op.
func (o *GetLocalHour) Name() string { return "GetLocalHour" }

// Class implements Op.
func (o *GetLocalHour) Class() Class { return FeatureGen }

// Inputs implements Op.
func (o *GetLocalHour) Inputs() []schema.FeatureID { return []schema.FeatureID{o.In} }

// Output implements Op.
func (o *GetLocalHour) Output() schema.FeatureID { return o.Out }

// Cost implements Op.
func (o *GetLocalHour) Cost() CostModel {
	return CostModel{CyclesPerValue: 30, MemBytesPerValue: 8, AccelSpeedup: 2}
}

// mapValue is the op's scalar kernel, shared by Apply and the compiled
// Plan.
func (o *GetLocalHour) mapValue(v float32) float32 {
	secs := int64(v) + int64(o.OffsetMinutes)*60
	hour := (secs / 3600) % 24
	if hour < 0 {
		hour += 24
	}
	return float32(hour)
}

// mapIn implements denseMapper.
func (o *GetLocalHour) mapIn() schema.FeatureID { return o.In }

// validateMap implements denseMapper.
func (o *GetLocalHour) validateMap() error { return nil }

// Apply implements Op.
func (o *GetLocalHour) Apply(b *dwrf.Batch) (int64, error) {
	return applyDenseMap(b, o, o.Out)
}
