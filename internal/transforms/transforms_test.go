package transforms

import (
	"math"
	"testing"
	"testing/quick"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// testBatch builds a batch with one dense feature (id 1) and two sparse
// features (ids 2, 3).
func testBatch() *dwrf.Batch {
	b := &dwrf.Batch{
		Rows:      4,
		Labels:    []float32{0, 1, 0, 1},
		Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
		Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
		ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
	}
	b.Dense[1] = &dwrf.DenseColumn{
		Present: []bool{true, true, false, true},
		Values:  []float32{0.2, 0.9, 0, -5},
	}
	b.Sparse[2] = &dwrf.SparseColumn{
		Offsets: []int32{0, 3, 5, 5, 6},
		Values:  []int64{10, 20, 30, 40, 50, -7},
	}
	b.Sparse[3] = &dwrf.SparseColumn{
		Offsets: []int32{0, 2, 3, 3, 4},
		Values:  []int64{20, 99, 40, -7},
	}
	return b
}

func TestLogit(t *testing.T) {
	b := testBatch()
	op := &Logit{In: 1, Out: 100}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	out := b.Dense[100]
	if !out.Present[0] || out.Present[2] {
		t.Fatal("presence not propagated")
	}
	want := float32(math.Log(0.2 / 0.8))
	if math.Abs(float64(out.Values[0]-want)) > 1e-5 {
		t.Fatalf("logit(0.2) = %v, want %v", out.Values[0], want)
	}
	// Out-of-range input (-5) must be clamped, not NaN.
	if math.IsNaN(float64(out.Values[3])) || math.IsInf(float64(out.Values[3]), 0) {
		t.Fatalf("logit(-5) = %v", out.Values[3])
	}
}

func TestBoxCox(t *testing.T) {
	b := testBatch()
	op := &BoxCox{In: 1, Out: 100, Lambda: 2}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	got := b.Dense[100].Values[1] // x=0.9, lambda=2: (0.81-1)/2
	if math.Abs(float64(got)+0.095) > 1e-5 {
		t.Fatalf("boxcox(0.9) = %v, want -0.095", got)
	}
	// Lambda 0 means log.
	op0 := &BoxCox{In: 1, Out: 101, Lambda: 0}
	if _, err := op0.Apply(b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(b.Dense[101].Values[1])-math.Log(0.9)) > 1e-5 {
		t.Fatalf("boxcox0(0.9) = %v", b.Dense[101].Values[1])
	}
}

func TestOnehot(t *testing.T) {
	b := testBatch()
	op := &Onehot{In: 1, Out: 100, Buckets: 10, Min: 0, Max: 1}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	col := b.Sparse[100]
	if got := col.RowValues(0); len(got) != 1 || got[0] != 2 { // 0.2*10=2
		t.Fatalf("onehot(0.2) = %v", got)
	}
	if got := col.RowValues(3); len(got) != 1 || got[0] != 0 { // -5 clamps to 0
		t.Fatalf("onehot(-5) = %v", got)
	}
	if got := col.RowValues(2); len(got) != 0 { // absent row
		t.Fatalf("onehot(absent) = %v", got)
	}
	bad := &Onehot{In: 1, Out: 101, Buckets: 0}
	if _, err := bad.Apply(b); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestClamp(t *testing.T) {
	b := testBatch()
	op := &Clamp{In: 1, Out: 100, Lo: 0, Hi: 0.5}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	vals := b.Dense[100].Values
	if vals[0] != 0.2 || vals[1] != 0.5 || vals[3] != 0 {
		t.Fatalf("clamp = %v", vals)
	}
	bad := &Clamp{In: 1, Out: 101, Lo: 1, Hi: 0}
	if _, err := bad.Apply(b); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestGetLocalHour(t *testing.T) {
	b := testBatch()
	b.Dense[1].Values[0] = 7200 // 02:00 UTC
	op := &GetLocalHour{In: 1, Out: 100, OffsetMinutes: 60}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := b.Dense[100].Values[0]; got != 3 {
		t.Fatalf("local hour = %v, want 3", got)
	}
}

func TestSigridHash(t *testing.T) {
	b := testBatch()
	op := &SigridHash{In: 2, Out: 100, Salt: 1, MaxValue: 1000}
	n, err := op.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("processed %d values, want 6", n)
	}
	out := b.Sparse[100]
	for _, v := range out.Values {
		if v < 0 || v >= 1000 {
			t.Fatalf("hashed value %d out of range", v)
		}
	}
	// Determinism: same input+salt => same output.
	b2 := testBatch()
	if _, err := op.Apply(b2); err != nil {
		t.Fatal(err)
	}
	for i := range out.Values {
		if out.Values[i] != b2.Sparse[100].Values[i] {
			t.Fatal("SigridHash not deterministic")
		}
	}
	bad := &SigridHash{In: 2, Out: 101, MaxValue: 0}
	if _, err := bad.Apply(b); err == nil {
		t.Fatal("zero MaxValue accepted")
	}
}

func TestFirstX(t *testing.T) {
	b := testBatch()
	op := &FirstX{In: 2, Out: 100, X: 2}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	out := b.Sparse[100]
	if got := out.RowValues(0); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("FirstX row0 = %v", got)
	}
	if got := out.RowValues(2); len(got) != 0 {
		t.Fatalf("FirstX empty row = %v", got)
	}
}

func TestPositiveModulus(t *testing.T) {
	b := testBatch()
	op := &PositiveModulus{In: 2, Out: 100, M: 7}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	out := b.Sparse[100]
	for _, v := range out.Values {
		if v < 0 || v >= 7 {
			t.Fatalf("modulus value %d out of range", v)
		}
	}
	// -7 mod 7 = 0, positively.
	if got := out.RowValues(3); got[0] != 0 {
		t.Fatalf("(-7 mod 7) = %d, want 0", got[0])
	}

	// A modulus above MaxInt64/2: v%M + M must not wrap, on either path.
	const v, m = math.MaxInt64 - 2, math.MaxInt64 - 1
	wide := &PositiveModulus{In: 2, Out: 100, M: m}
	plan, err := NewGraph().Add(wide).CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*dwrf.Batch) error{
		"Apply": func(b *dwrf.Batch) error {
			_, err := wide.Apply(b)
			return err
		},
		"Plan": func(b *dwrf.Batch) error {
			_, err := plan.Run(b, nil)
			return err
		},
	} {
		b := testBatch()
		b.Sparse[2] = &dwrf.SparseColumn{Offsets: []int32{0, 1, 1, 1, 1}, Values: []int64{v}}
		if err := run(b); err != nil {
			t.Fatal(err)
		}
		if got := b.Sparse[100].Values[0]; got != v {
			t.Fatalf("%s: (MaxInt64-2) mod (MaxInt64-1) = %d, want %d", name, got, int64(v))
		}
	}
}

func TestEnumerate(t *testing.T) {
	b := testBatch()
	op := &Enumerate{In: 2, Out: 100}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := b.Sparse[100].RowValues(0); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("enumerate = %v", got)
	}
}

func TestMapId(t *testing.T) {
	b := testBatch()
	op := &MapId{In: 2, Out: 100, Mapping: map[int64]int64{10: 1000}, Default: -1}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	got := b.Sparse[100].RowValues(0)
	if got[0] != 1000 || got[1] != -1 {
		t.Fatalf("MapId = %v", got)
	}
}

func TestIdListTransform(t *testing.T) {
	b := testBatch()
	op := &IdListTransform{A: 2, B: 3, Out: 100}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	out := b.Sparse[100]
	// Row 0: {10,20,30} ∩ {20,99} = {20}.
	if got := out.RowValues(0); len(got) != 1 || got[0] != 20 {
		t.Fatalf("intersection row0 = %v", got)
	}
	// Row 1: {40,50} ∩ {40} = {40}.
	if got := out.RowValues(1); len(got) != 1 || got[0] != 40 {
		t.Fatalf("intersection row1 = %v", got)
	}
	// Row 3: {-7} ∩ {-7} = {-7}.
	if got := out.RowValues(3); len(got) != 1 || got[0] != -7 {
		t.Fatalf("intersection row3 = %v", got)
	}
}

func TestCartesian(t *testing.T) {
	b := testBatch()
	op := &Cartesian{A: 2, B: 3, Out: 100}
	n, err := op.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.Sparse[100]
	// Row 0: 3x2 = 6 pairs.
	if got := out.RowValues(0); len(got) != 6 {
		t.Fatalf("cartesian row0 has %d values", len(got))
	}
	// Row 2: empty a => empty product.
	if got := out.RowValues(2); len(got) != 0 {
		t.Fatalf("cartesian empty row = %v", got)
	}
	if n != 6+2+0+1 {
		t.Fatalf("processed %d, want 9", n)
	}
	capped := &Cartesian{A: 2, B: 3, Out: 101, MaxOutput: 2}
	if _, err := capped.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := b.Sparse[101].RowValues(0); len(got) != 2 {
		t.Fatalf("capped cartesian = %d values", len(got))
	}
}

func TestNGram(t *testing.T) {
	b := testBatch()
	op := &NGram{In: 2, Out: 100, N: 2}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	out := b.Sparse[100]
	if got := out.RowValues(0); len(got) != 2 { // 3 values -> 2 bigrams
		t.Fatalf("ngram row0 = %d values", len(got))
	}
	if got := out.RowValues(3); len(got) != 0 { // 1 value -> no bigram
		t.Fatalf("ngram short row = %v", got)
	}
	bad := &NGram{In: 2, Out: 101, N: 0}
	if _, err := bad.Apply(b); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestComputeScore(t *testing.T) {
	b := testBatch()
	op := &ComputeScore{In: 2, Out: 100, ScaleA: 2, BiasB: 1}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	col := b.ScoreList[100]
	got := col.RowValues(0)
	if len(got) != 3 || got[0].Value != 10 {
		t.Fatalf("ComputeScore = %+v", got)
	}
	want := float32(2)*10/1000 + 1
	if math.Abs(float64(got[0].Score-want)) > 1e-6 {
		t.Fatalf("score = %v, want %v", got[0].Score, want)
	}
}

func TestBucketize(t *testing.T) {
	b := testBatch()
	op := &Bucketize{In: 1, Out: 100, Borders: []float32{0, 0.5}}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	col := b.Sparse[100]
	// 0.2 -> bucket 1, 0.9 -> bucket 2, -5 -> bucket 0.
	if col.RowValues(0)[0] != 1 || col.RowValues(1)[0] != 2 || col.RowValues(3)[0] != 0 {
		t.Fatalf("bucketize = %v %v %v", col.RowValues(0), col.RowValues(1), col.RowValues(3))
	}
	bad := &Bucketize{In: 1, Out: 101, Borders: []float32{1, 1}}
	if _, err := bad.Apply(b); err == nil {
		t.Fatal("non-increasing borders accepted")
	}
}

func TestSampling(t *testing.T) {
	b := testBatch()
	op := &Sampling{Rate: 0.5, Seed: 3}
	if _, err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	if b.Rows >= 4 && b.Rows != 4 {
		t.Fatalf("rows = %d", b.Rows)
	}
	if len(b.Labels) != b.Rows {
		t.Fatalf("labels %d != rows %d", len(b.Labels), b.Rows)
	}
	for _, col := range b.Sparse {
		if len(col.Offsets) != b.Rows+1 {
			t.Fatalf("sparse offsets %d for %d rows", len(col.Offsets), b.Rows)
		}
	}
	zero := &Sampling{Rate: 0, Seed: 1}
	b2 := testBatch()
	if _, err := zero.Apply(b2); err != nil {
		t.Fatal(err)
	}
	if b2.Rows != 0 {
		t.Fatalf("rate 0 kept %d rows", b2.Rows)
	}
	bad := &Sampling{Rate: 1.5}
	if _, err := bad.Apply(testBatch()); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestGraphTopologicalOrder(t *testing.T) {
	g := NewGraph()
	// Added out of order: 101 depends on 100.
	g.Add(&SigridHash{In: 100, Out: 101, Salt: 1, MaxValue: 100})
	g.Add(&FirstX{In: 2, Out: 100, X: 2})
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	b := testBatch()
	stats, err := g.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OpsRun != 2 {
		t.Fatalf("OpsRun = %d", stats.OpsRun)
	}
	if _, ok := b.Sparse[101]; !ok {
		t.Fatal("chained output missing")
	}
	// 101 must be the hash of the truncated list (len 2), not the raw.
	if got := b.Sparse[101].RowValues(0); len(got) != 2 {
		t.Fatalf("chain order wrong: %v", got)
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	g.Add(&SigridHash{In: 101, Out: 100, Salt: 1, MaxValue: 10})
	g.Add(&SigridHash{In: 100, Out: 101, Salt: 2, MaxValue: 10})
	if err := g.Compile(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestGraphDuplicateProducer(t *testing.T) {
	g := NewGraph()
	g.Add(&FirstX{In: 2, Out: 100, X: 1})
	g.Add(&Enumerate{In: 3, Out: 100})
	if err := g.Compile(); err == nil {
		t.Fatal("duplicate producer accepted")
	}
}

func TestGraphRowOpsRunFirst(t *testing.T) {
	g := NewGraph()
	g.Add(&FirstX{In: 2, Out: 100, X: 2})
	g.Add(&Sampling{Rate: 1, Seed: 1}) // keeps all rows but must run first
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	if g.sorted[0].Class() != RowOp {
		t.Fatal("row op not first")
	}
}

func TestGraphStatsClasses(t *testing.T) {
	g := NewGraph()
	g.Add(&Logit{In: 1, Out: 100})
	g.Add(&SigridHash{In: 2, Out: 101, Salt: 1, MaxValue: 100})
	g.Add(&Cartesian{A: 2, B: 3, Out: 102})
	b := testBatch()
	stats, err := g.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CyclesByClass[DenseNorm] <= 0 || stats.CyclesByClass[SparseNorm] <= 0 || stats.CyclesByClass[FeatureGen] <= 0 {
		t.Fatalf("classes missing: %+v", stats.CyclesByClass)
	}
	if stats.TotalCycles() <= 0 || stats.MemBytes <= 0 {
		t.Fatal("no cost accounted")
	}
	share := stats.ClassShare(DenseNorm) + stats.ClassShare(SparseNorm) + stats.ClassShare(FeatureGen)
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("class shares sum to %v", share)
	}
}

func TestStandardGraphCycleSplitMatchesPaper(t *testing.T) {
	// §6.4: dense norm ≈5%, sparse norm ≈20%, feature gen ≈75% of
	// transformation cycles.
	dense := []schema.FeatureID{1}
	sparse := []schema.FeatureID{2, 3}
	g := StandardGraph(dense, sparse, 6, 1000)
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	b := testBatch()
	// Widen the batch so per-row noise averages out.
	for i := 0; i < 6; i++ {
		grow(b)
	}
	stats, err := g.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	gen := stats.ClassShare(FeatureGen)
	sparseShare := stats.ClassShare(SparseNorm)
	denseShare := stats.ClassShare(DenseNorm)
	if gen < 0.55 || gen > 0.95 {
		t.Fatalf("feature-gen share = %.2f, want ≈0.75", gen)
	}
	if sparseShare < 0.04 || sparseShare > 0.40 {
		t.Fatalf("sparse-norm share = %.2f, want ≈0.20", sparseShare)
	}
	if denseShare > 0.15 {
		t.Fatalf("dense-norm share = %.2f, want ≈0.05", denseShare)
	}
	if !(gen > sparseShare && sparseShare > denseShare) {
		t.Fatalf("ordering violated: gen %.2f sparse %.2f dense %.2f", gen, sparseShare, denseShare)
	}
}

// grow doubles the batch rows by self-concatenation.
func grow(b *dwrf.Batch) {
	n := b.Rows
	b.Labels = append(b.Labels, b.Labels...)
	for _, col := range b.Dense {
		col.Present = append(col.Present, col.Present...)
		col.Values = append(col.Values, col.Values...)
	}
	for _, col := range b.Sparse {
		base := col.Offsets[n]
		for i := 1; i <= n; i++ {
			col.Offsets = append(col.Offsets, base+col.Offsets[i])
		}
		col.Values = append(col.Values, col.Values[:base]...)
	}
	for _, col := range b.ScoreList {
		base := col.Offsets[n]
		for i := 1; i <= n; i++ {
			col.Offsets = append(col.Offsets, base+col.Offsets[i])
		}
		col.Values = append(col.Values, col.Values[:base]...)
	}
	b.Rows = 2 * n
}

func TestAccelSpeedupsMatchPaper(t *testing.T) {
	// §7.2: SigridHash 11.9x, Bucketize 1.3x on GPU.
	if got := (&SigridHash{}).Cost().AccelSpeedup; got != 11.9 {
		t.Fatalf("SigridHash speedup = %v", got)
	}
	if got := (&Bucketize{}).Cost().AccelSpeedup; got != 1.3 {
		t.Fatalf("Bucketize speedup = %v", got)
	}
}

func TestAllOpsHaveNamesAndCosts(t *testing.T) {
	ops := []Op{
		&Cartesian{}, &Bucketize{}, &ComputeScore{}, &Enumerate{},
		&PositiveModulus{}, &IdListTransform{}, &BoxCox{}, &Logit{},
		&MapId{}, &FirstX{}, &GetLocalHour{}, &SigridHash{}, &NGram{},
		&Onehot{}, &Clamp{}, &Sampling{},
	}
	if len(ops) != 16 {
		t.Fatalf("Table 11 lists 16 ops, have %d", len(ops))
	}
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Name() == "" || seen[op.Name()] {
			t.Fatalf("bad/dup name %q", op.Name())
		}
		seen[op.Name()] = true
		c := op.Cost()
		if c.CyclesPerValue <= 0 || c.MemBytesPerValue <= 0 || c.AccelSpeedup < 1 {
			t.Fatalf("%s has degenerate cost %+v", op.Name(), c)
		}
	}
}

// Property: SigridHash output is always within [0, MaxValue), for every
// positive MaxValue up to MaxInt64, and row-structure is preserved.
func TestSigridHashRangeProperty(t *testing.T) {
	inRange := func(vals []int64, m int64) bool {
		b := &dwrf.Batch{
			Rows:      1,
			Labels:    []float32{0},
			Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
			Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
			ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
		}
		b.Sparse[1] = &dwrf.SparseColumn{Offsets: []int32{0, int32(len(vals))}, Values: vals}
		op := &SigridHash{In: 1, Out: 2, Salt: 7, MaxValue: m}
		if _, err := op.Apply(b); err != nil {
			return false
		}
		out := b.Sparse[2]
		if len(out.Values) != len(vals) {
			return false
		}
		for _, v := range out.Values {
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	// MaxValue is the high bits of a random word shifted right by 0..62,
	// so small and huge moduli both occur.
	f := func(vals []int64, maxVal int64, shift uint8) bool {
		return inRange(vals, max(1, int64(uint64(maxVal)>>1>>(shift%63))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	for _, m := range []int64{1, 2, math.MaxInt64} {
		if !inRange(edges, m) {
			t.Fatalf("MaxValue %d: an output left [0, MaxValue)", m)
		}
	}
	// The reduction sees the full 64-bit state, so at MaxValue = MaxInt64
	// the upper half of the range is reached.
	upper := false
	for v := int64(0); v < 64; v++ {
		upper = upper || sigridBucket(v, 7, math.MaxInt64) >= math.MaxInt64/2
	}
	if !upper {
		t.Fatal("no output of IDs 0..63 in [MaxInt64/2, MaxInt64): the reduction sees a masked state")
	}
}

// Property: FirstX never lengthens a list and preserves prefixes.
func TestFirstXPrefixProperty(t *testing.T) {
	f := func(vals []int64, x uint8) bool {
		b := &dwrf.Batch{
			Rows:      1,
			Labels:    []float32{0},
			Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
			Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
			ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
		}
		b.Sparse[1] = &dwrf.SparseColumn{Offsets: []int32{0, int32(len(vals))}, Values: vals}
		op := &FirstX{In: 1, Out: 2, X: int(x)}
		if _, err := op.Apply(b); err != nil {
			return false
		}
		got := b.Sparse[2].RowValues(0)
		if len(got) > int(x) || len(got) > len(vals) {
			return false
		}
		for i := range got {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
