package transforms

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// The golden parity suite: every op (and the §7.2 chained example) runs
// through both the legacy interpreter (Graph.Run) and the compiled
// slot-indexed plan (Plan.Run) on identical batches, and the resulting
// columns must be byte-identical — including missing-feature and
// empty-row edges — along with the Stats and the materialized tensors'
// ContentSum.

// copyBatch deep-copies a batch so the two execution paths cannot
// observe each other's mutations.
func copyBatch(b *dwrf.Batch) *dwrf.Batch {
	nb := &dwrf.Batch{
		Rows:      b.Rows,
		Labels:    append([]float32(nil), b.Labels...),
		Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
		Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
		ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
	}
	for id, c := range b.Dense {
		nb.Dense[id] = &dwrf.DenseColumn{
			Present: append([]bool(nil), c.Present...),
			Values:  append([]float32(nil), c.Values...),
		}
	}
	for id, c := range b.Sparse {
		nb.Sparse[id] = &dwrf.SparseColumn{
			Offsets: append([]int32(nil), c.Offsets...),
			Values:  append([]int64(nil), c.Values...),
			Dict:    append([]int64(nil), c.Dict...),
		}
	}
	for id, c := range b.ScoreList {
		nb.ScoreList[id] = &dwrf.ScoreListColumn{
			Offsets: append([]int32(nil), c.Offsets...),
			Values:  append([]schema.ScoredValue(nil), c.Values...),
		}
	}
	return nb
}

// sliceEq compares element-wise, treating nil and empty as equal (the
// interpreter's fresh allocations and the plan's recycled buffers
// differ only in that respect).
func sliceEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireBatchEqual asserts both paths produced byte-identical batches.
func requireBatchEqual(t *testing.T, want, got *dwrf.Batch) {
	t.Helper()
	if want.Rows != got.Rows {
		t.Fatalf("rows: interpreter %d, plan %d", want.Rows, got.Rows)
	}
	if !sliceEq(want.Labels, got.Labels) {
		t.Fatalf("labels differ: %v vs %v", want.Labels, got.Labels)
	}
	if len(want.Dense) != len(got.Dense) || len(want.Sparse) != len(got.Sparse) || len(want.ScoreList) != len(got.ScoreList) {
		t.Fatalf("column sets differ: dense %d/%d sparse %d/%d score %d/%d",
			len(want.Dense), len(got.Dense), len(want.Sparse), len(got.Sparse), len(want.ScoreList), len(got.ScoreList))
	}
	for id, w := range want.Dense {
		g := got.Dense[id]
		if g == nil || !sliceEq(w.Present, g.Present) || !sliceEq(w.Values, g.Values) {
			t.Fatalf("dense %d differs:\nwant %+v\ngot  %+v", id, w, g)
		}
	}
	for id, w := range want.Sparse {
		g := got.Sparse[id]
		// Compare through MaterializedValues: the interpreter expands
		// dictionary columns up front while the plan keeps them
		// dict-indexed, and both representations must decode equal.
		if g == nil || !sliceEq(w.Offsets, g.Offsets) ||
			!sliceEq(w.MaterializedValues(nil), g.MaterializedValues(nil)) {
			t.Fatalf("sparse %d differs:\nwant %+v\ngot  %+v", id, w, g)
		}
	}
	for id, w := range want.ScoreList {
		g := got.ScoreList[id]
		if g == nil || !sliceEq(w.Offsets, g.Offsets) || !sliceEq(w.Values, g.Values) {
			t.Fatalf("score-list %d differs:\nwant %+v\ngot  %+v", id, w, g)
		}
	}
}

func requireStatsEqual(t *testing.T, want, got Stats) {
	t.Helper()
	if want.OpsRun != got.OpsRun || want.RowsIn != got.RowsIn || want.RowsOut != got.RowsOut {
		t.Fatalf("stats counts differ: %+v vs %+v", want, got)
	}
	if want.MemBytes != got.MemBytes || want.TotalCycles() != got.TotalCycles() {
		t.Fatalf("stats costs differ: %+v vs %+v", want, got)
	}
	for cls, v := range want.ValuesByClass {
		if got.ValuesByClass[cls] != v {
			t.Fatalf("values[%s] = %d, want %d", Class(cls), got.ValuesByClass[cls], v)
		}
	}
	for cls, v := range want.CyclesByClass {
		if got.CyclesByClass[cls] != v {
			t.Fatalf("cycles[%s] = %v, want %v", Class(cls), got.CyclesByClass[cls], v)
		}
	}
}

// allFeatureIDs splits a batch's features by kind, for materialization.
func allFeatureIDs(b *dwrf.Batch) (dense, sparse []schema.FeatureID) {
	for id := range b.Dense {
		dense = append(dense, id)
	}
	for id := range b.Sparse {
		sparse = append(sparse, id)
	}
	return dense, sparse
}

// runParity executes the graph through both paths on copies of the
// batch and asserts byte-identical batches, identical stats, and equal
// materialized ContentSums. It returns the interpreter's batch for
// extra assertions. The plan runs both with and without an arena.
func runParity(t *testing.T, g *Graph, batch *dwrf.Batch) *dwrf.Batch {
	t.Helper()
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	plan, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}

	interp := copyBatch(batch)
	wantStats, err := g.Run(interp)
	if err != nil {
		t.Fatal(err)
	}

	for name, arena := range map[string]*dwrf.Arena{"arena": dwrf.NewArena(), "no-arena": nil} {
		compiled := copyBatch(batch)
		gotStats, err := plan.Run(compiled, arena)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireBatchEqual(t, interp, compiled)
		requireStatsEqual(t, wantStats, gotStats)

		dense, sparse := allFeatureIDs(interp)
		wantT, err := tensor.Materialize(interp, dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := tensor.Materialize(compiled, dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, gotSum := tensor.NewContentSum(), tensor.NewContentSum()
		wantSum.AddBatch(wantT)
		gotSum.AddBatch(gotT)
		if !wantSum.Equal(gotSum) {
			t.Fatalf("%s: ContentSum differs", name)
		}
	}
	return interp
}

// parityBatch is testBatch with the empty-row and absent-value edges
// already in it (sparse row 2 is empty, dense row 2 is absent), grown a
// little so ragged rows vary.
func parityBatch() *dwrf.Batch {
	b := testBatch()
	grow(b)
	grow(b)
	return b
}

func TestPlanParityEveryOp(t *testing.T) {
	g := NewGraph().Add(
		// Dense normalization, including reads of a missing dense
		// feature (40).
		&Logit{In: 1, Out: 100},
		&BoxCox{In: 1, Out: 101, Lambda: 0.5},
		&Clamp{In: 1, Out: 102, Lo: -1, Hi: 1},
		&GetLocalHour{In: 1, Out: 103, OffsetMinutes: 90},
		&Onehot{In: 1, Out: 104, Buckets: 8, Min: -1, Max: 1},
		&Logit{In: 40, Out: 105},
		// Feature generation from dense.
		&Bucketize{In: 1, Out: 106, Borders: []float32{-0.5, 0.25, 0.75}},
		// Sparse normalization and generation, including reads of a
		// missing sparse feature (41).
		&SigridHash{In: 2, Out: 110, Salt: 5, MaxValue: 1000},
		&FirstX{In: 2, Out: 111, X: 2},
		&PositiveModulus{In: 2, Out: 112, M: 7},
		&Enumerate{In: 2, Out: 113},
		&MapId{In: 2, Out: 114, Mapping: map[int64]int64{10: 1000, 40: 4000}, Default: -1},
		&IdListTransform{A: 2, B: 3, Out: 115},
		&Cartesian{A: 2, B: 3, Out: 116, MaxOutput: 4},
		&NGram{In: 2, Out: 117, N: 2},
		&ComputeScore{In: 2, Out: 118, ScaleA: 2, BiasB: 1},
		&SigridHash{In: 41, Out: 119, Salt: 1, MaxValue: 50},
		&Cartesian{A: 2, B: 41, Out: 120},
		// Row op: runs first on both paths, same seed, same kept rows.
		&Sampling{Rate: 0.5, Seed: 9},
	)
	out := runParity(t, g, parityBatch())
	if out.Rows >= 16 {
		t.Fatalf("sampling kept all %d rows; edge not exercised", out.Rows)
	}
	// The missing-feature reads must still have produced output columns.
	if out.Dense[105] == nil || out.Sparse[119] == nil || out.Sparse[120] == nil {
		t.Fatal("missing-feature outputs not produced")
	}
}

// dictify rewrites every sparse column into its dictionary-indexed
// representation (sorted distinct values in Dict, per-occurrence indices
// in Values) — exactly what the v2 DWRF reader produces for
// dict-encoded streams.
func dictify(b *dwrf.Batch) *dwrf.Batch {
	for id, c := range b.Sparse {
		if len(c.Values) == 0 {
			continue
		}
		dict := append([]int64(nil), c.Values...)
		sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
		n := 1
		for i := 1; i < len(dict); i++ {
			if dict[i] != dict[n-1] {
				dict[n] = dict[i]
				n++
			}
		}
		dict = dict[:n]
		idx := make([]int64, len(c.Values))
		for i, v := range c.Values {
			idx[i] = int64(sort.Search(len(dict), func(d int) bool { return dict[d] >= v }))
		}
		b.Sparse[id] = &dwrf.SparseColumn{Offsets: c.Offsets, Values: idx, Dict: dict}
	}
	return b
}

// TestPlanParityDictEncodedInputs feeds the compiled plan
// dictionary-indexed sparse inputs while the interpreter sees the same
// batch in plain form, covering every dict-aware kernel: the decoded
// outputs, stats, and tensor ContentSums must match, and elementwise ops
// must keep (not expand) the dictionary representation. The graph
// fingerprint must not depend on input representation either.
func TestPlanParityDictEncodedInputs(t *testing.T) {
	mk := func() *Graph {
		return NewGraph().Add(
			&SigridHash{In: 2, Out: 110, Salt: 5, MaxValue: 1000},
			&FirstX{In: 2, Out: 111, X: 2},
			&PositiveModulus{In: 2, Out: 112, M: 7},
			&Enumerate{In: 2, Out: 113},
			&MapId{In: 2, Out: 114, Mapping: map[int64]int64{10: 1000, 40: 4000}, Default: -1},
			&IdListTransform{A: 2, B: 3, Out: 115},
			&Cartesian{A: 2, B: 3, Out: 116, MaxOutput: 4},
			&NGram{In: 2, Out: 117, N: 2},
			&ComputeScore{In: 2, Out: 118, ScaleA: 2, BiasB: 1},
			&Sampling{Rate: 0.5, Seed: 9},
		)
	}
	g := mk()
	plan, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()

	base := parityBatch()
	interp := copyBatch(base)
	wantStats, err := g.Run(interp)
	if err != nil {
		t.Fatal(err)
	}

	for name, arena := range map[string]*dwrf.Arena{"arena": dwrf.NewArena(), "no-arena": nil} {
		compiled := dictify(copyBatch(base))
		gotStats, err := plan.Run(compiled, arena)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireBatchEqual(t, interp, compiled)
		requireStatsEqual(t, wantStats, gotStats)
		if !compiled.Sparse[110].IsDict() {
			t.Fatalf("%s: SigridHash over a dict input should stay dict-indexed", name)
		}
		if compiled.Sparse[116].IsDict() || compiled.Sparse[117].IsDict() {
			t.Fatalf("%s: generative ops must produce plain columns", name)
		}

		dense, sparse := allFeatureIDs(interp)
		wantT, err := tensor.Materialize(interp, dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := tensor.Materialize(compiled, dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, gotSum := tensor.NewContentSum(), tensor.NewContentSum()
		wantSum.AddBatch(wantT)
		gotSum.AddBatch(gotT)
		if !wantSum.Equal(gotSum) {
			t.Fatalf("%s: ContentSum differs between plain and dict inputs", name)
		}
	}

	again, err := mk().CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != fp {
		t.Fatal("plan fingerprint unstable")
	}
}

// TestPlanParityChainedExample is §7.2's multi-op derivation chain:
// Bucketize one raw dense feature, FirstX a raw sparse one, cross and
// n-gram the intermediates, SigridHash the result.
func TestPlanParityChainedExample(t *testing.T) {
	g := NewGraph().Add(
		&Bucketize{In: 1, Out: 200, Borders: []float32{-2, -1, 0, 1, 2}},
		&FirstX{In: 2, Out: 201, X: 3},
		&Cartesian{A: 200, B: 201, Out: 202, MaxOutput: 8},
		&NGram{In: 202, Out: 203, N: 2},
		&SigridHash{In: 203, Out: 204, Salt: 7, MaxValue: 1 << 20},
	)
	out := runParity(t, g, parityBatch())
	if len(out.Sparse[204].Values) == 0 {
		t.Fatal("chained derivation produced no values")
	}
}

func TestPlanParityStandardGraph(t *testing.T) {
	g := StandardGraph([]schema.FeatureID{1}, []schema.FeatureID{2, 3}, 9, 1000)
	runParity(t, g, parityBatch())
}

func TestPlanParityEmptyBatch(t *testing.T) {
	g := NewGraph().Add(
		&Logit{In: 1, Out: 100},
		&SigridHash{In: 2, Out: 101, Salt: 1, MaxValue: 10},
		&Cartesian{A: 2, B: 3, Out: 102},
	)
	empty := &dwrf.Batch{
		Rows:      0,
		Labels:    []float32{},
		Dense:     map[schema.FeatureID]*dwrf.DenseColumn{},
		Sparse:    map[schema.FeatureID]*dwrf.SparseColumn{},
		ScoreList: map[schema.FeatureID]*dwrf.ScoreListColumn{},
	}
	runParity(t, g, empty)
}

// TestPlanFusesDenseChains checks that a linear chain of elementwise
// dense ops lowers to one step and still matches the interpreter
// byte-for-byte (intermediates included).
func TestPlanFusesDenseChains(t *testing.T) {
	g := NewGraph().Add(
		&Logit{In: 1, Out: 100},
		&Clamp{In: 100, Out: 101, Lo: -2, Hi: 2},
		&BoxCox{In: 101, Out: 102, Lambda: 0.5},
		// Not fusable into the chain: reads the chain's head, not its
		// tail.
		&GetLocalHour{In: 100, Out: 103},
	)
	out := runParity(t, g, parityBatch())
	for _, id := range []schema.FeatureID{100, 101, 102, 103} {
		if out.Dense[id] == nil {
			t.Fatalf("dense %d missing", id)
		}
	}
	plan, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	// Logit+Clamp+BoxCox fuse into one step; GetLocalHour is its own.
	// A run accounts every op it executes, fused or not, in OpsRun.
	stats, err := plan.Run(parityBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops, steps := stats.OpsRun, len(plan.steps)+len(plan.rowOps); ops != 4 || steps != 2 {
		t.Fatalf("ops=%d steps=%d, want 4 ops in 2 steps", ops, steps)
	}
}

// TestPlanArenaReuseAcrossBatches cycles batches of different shapes
// through one plan and arena, releasing between runs, and checks each
// result against a fresh interpreter run — recycled buffers must never
// leak stale rows or values across batches.
func TestPlanArenaReuseAcrossBatches(t *testing.T) {
	g := StandardGraph([]schema.FeatureID{1}, []schema.FeatureID{2, 3}, 6, 1000)
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	plan, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	arena := dwrf.NewArena()

	shapes := []*dwrf.Batch{parityBatch(), testBatch(), parityBatch(), testBatch()}
	grow(shapes[2]) // a larger batch between small ones
	for round, shape := range shapes {
		interp := copyBatch(shape)
		if _, err := g.Run(interp); err != nil {
			t.Fatal(err)
		}
		// The compiled path consumes an arena-owned copy, as the worker
		// does: decode into arena, transform, release.
		compiled := arena.NewBatch(shape.Rows)
		tmp := copyBatch(shape)
		compiled.Labels, compiled.Dense, compiled.Sparse, compiled.ScoreList = tmp.Labels, tmp.Dense, tmp.Sparse, tmp.ScoreList
		if _, err := plan.Run(compiled, arena); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		requireBatchEqual(t, interp, compiled)
		compiled.Release()
	}
}

// TestPlanExecAcrossPlans runs two different plans back to back on one
// execution state: the free list hands the exec plan A grew — slots of
// A's layout, A's dictionary materializations and hash prefixes — to
// plan B, whose output must still equal the interpreter's.
func TestPlanExecAcrossPlans(t *testing.T) {
	a := StandardGraph([]schema.FeatureID{1}, []schema.FeatureID{2, 3}, 9, 1000)
	b := NewGraph().Add(
		&NGram{In: 3, Out: 500, N: 3},
		&Cartesian{A: 3, B: 2, Out: 501, MaxOutput: 6},
		&IdListTransform{A: 3, B: 2, Out: 502},
		&SigridHash{In: 501, Out: 503, Salt: 3, MaxValue: 1 << 10},
		&Onehot{In: 1, Out: 504, Buckets: 4, Min: -1, Max: 1},
	)
	planA, err := a.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	planB, err := b.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	big := parityBatch()
	grow(big)
	grow(big)
	if _, err := planA.Run(dictify(big), dwrf.NewArena()); err != nil {
		t.Fatal(err)
	}
	reused, _ := planExecs.Get()
	planExecs.Put(reused)

	want := parityBatch()
	wantStats, err := b.Run(want)
	if err != nil {
		t.Fatal(err)
	}
	got := dictify(parityBatch())
	gotStats, err := planB.Run(got, dwrf.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	requireBatchEqual(t, want, got)
	requireStatsEqual(t, wantStats, gotStats)
	top, _ := planExecs.Get()
	planExecs.Put(top)
	if top != reused {
		t.Fatal("plan B did not run on the exec plan A returned")
	}
}

// TestDeriveViewReleaseReturnsOnlyItsColumns runs ops over views of a
// batch and releases them: the arena gets back exactly the columns each
// view built — every column, after Sampling rebuilt them all; the one
// derived column, after a SigridHash that left the raw columns shared —
// and the view's own labels, and never a column the parent holds,
// whose values stay intact.
func TestDeriveViewReleaseReturnsOnlyItsColumns(t *testing.T) {
	for _, c := range []struct {
		name string
		op   Op
	}{
		{"Sampling", &Sampling{Rate: 0.5, Seed: 9}},
		{"SigridHash", &SigridHash{In: 2, Out: 600, Salt: 1, MaxValue: 64}},
	} {
		t.Run(c.name, func(t *testing.T) { deriveViewReleaseCase(t, c.op) })
	}
}

func deriveViewReleaseCase(t *testing.T, op Op) {
	arena := dwrf.NewArena()
	src := parityBatch()
	src.ScoreList[4] = &dwrf.ScoreListColumn{
		Offsets: []int32{0, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6},
		Values:  []schema.ScoredValue{{Value: 1, Score: 0.5}, {Value: 2}, {Value: 3}, {Value: 4}, {Value: 5}, {Value: 6}},
	}
	parent := arena.NewBatch(src.Rows)
	tmp := copyBatch(src)
	parent.Labels, parent.Dense, parent.Sparse, parent.ScoreList = tmp.Labels, tmp.Dense, tmp.Sparse, tmp.ScoreList
	want := copyBatch(parent)
	parentCols := make(map[any]bool)
	for _, c := range parent.Dense {
		parentCols[c] = true
	}
	for _, c := range parent.Sparse {
		parentCols[c] = true
	}
	for _, c := range parent.ScoreList {
		parentCols[c] = true
	}

	view := parent.View(arena)
	if _, err := op.Apply(view); err != nil {
		t.Fatal(err)
	}
	own := make(map[any]bool)
	var nDense, nSparse, nScore int
	for _, c := range view.Dense {
		if !parentCols[c] {
			own[c] = true
			nDense++
		}
	}
	for _, c := range view.Sparse {
		if !parentCols[c] {
			own[c] = true
			nSparse++
		}
	}
	for _, c := range view.ScoreList {
		if !parentCols[c] {
			own[c] = true
			nScore++
		}
	}
	if len(own) == 0 {
		t.Fatal("the op built no column in the view")
	}
	viewLabels := view.Labels
	view.Release()

	// Draw back more columns than the view owned: every one must be a
	// new column or one of the view's own, never one the parent holds.
	var drawn []any
	for range nDense + 2 {
		drawn = append(drawn, arena.Dense(parent.Rows))
	}
	for range nSparse + 2 {
		drawn = append(drawn, arena.Sparse(parent.Rows))
	}
	for range nScore + 2 {
		drawn = append(drawn, arena.ScoreList(parent.Rows))
	}
	recycled := 0
	for _, c := range drawn {
		if parentCols[c] {
			t.Fatalf("the view's release handed the arena a parent column (%T)", c)
		}
		if own[c] {
			recycled++
		}
	}
	if recycled != len(own) {
		t.Fatalf("%d of the view's %d columns came back from the arena", recycled, len(own))
	}
	l := arena.Labels(0)
	switch {
	case cap(l) > 0 && &l[:1][0] == &parent.Labels[:1][0]:
		t.Fatal("the view's release handed the arena the parent's labels")
	case cap(l) == 0 || &l[:1][0] != &viewLabels[:1][0]:
		t.Fatal("the view's labels did not come back from the arena")
	}
	requireBatchEqual(t, want, parent)
	parent.Release()
}

func TestPlanCompileRejectsInvalidOps(t *testing.T) {
	cases := []Op{
		&Onehot{In: 1, Out: 100, Buckets: 0},
		&SigridHash{In: 2, Out: 100, MaxValue: 0},
		&NGram{In: 2, Out: 100, N: 0},
		&Bucketize{In: 1, Out: 100, Borders: []float32{1, 1}},
		&Clamp{In: 1, Out: 100, Lo: 2, Hi: 1},
		&FirstX{In: 2, Out: 100, X: -1},
		&PositiveModulus{In: 2, Out: 100, M: 0},
	}
	for _, op := range cases {
		g := NewGraph().Add(op)
		if _, err := g.CompilePlan(); err == nil {
			t.Fatalf("%s: invalid configuration compiled", op.Name())
		}
	}
}

// TestPlanConcurrentRuns runs one shared plan+arena from many
// goroutines on distinct batches (as the worker's transform pool does)
// under the race detector.
func TestPlanConcurrentRuns(t *testing.T) {
	g := StandardGraph([]schema.FeatureID{1}, []schema.FeatureID{2, 3}, 6, 1000)
	if err := g.Compile(); err != nil {
		t.Fatal(err)
	}
	plan, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	arena := dwrf.NewArena()
	want := copyBatch(parityBatch())
	if _, err := g.Run(want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				b := copyBatch(parityBatch())
				if _, err := plan.Run(b, arena); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One more serial run must still match the interpreter.
	b := copyBatch(parityBatch())
	if _, err := plan.Run(b, arena); err != nil {
		t.Fatal(err)
	}
	requireBatchEqual(t, want, b)
}

// TestTensorOutputsFollowSlotKinds pins how a session's tensors are
// named: terminal outputs only, filed by the slot kind the compiler
// assigned (GetLocalHour dense, Onehot sparse), score lists and row ops
// left out, in Ops() order even where that is not execution order.
func TestTensorOutputsFollowSlotKinds(t *testing.T) {
	g := NewGraph().Add(
		&SigridHash{In: 104, Out: 105, Salt: 1, MaxValue: 1 << 10}, // consumes FirstX, added first
		&Sampling{Rate: 1, Seed: 1},
		&GetLocalHour{In: 1, Out: 100},
		&Logit{In: 2, Out: 101},
		&Clamp{In: 101, Out: 102, Lo: -1, Hi: 1},
		&Onehot{In: 3, Out: 103, Buckets: 4, Min: 0, Max: 1},
		&FirstX{In: 5, Out: 104, X: 2},
		&ComputeScore{In: 5, Out: 106, ScaleA: 1},
	)
	dense, sparse, err := g.TensorOutputs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []schema.FeatureID{100, 102}; !reflect.DeepEqual(dense, want) {
		t.Fatalf("dense = %v, want %v", dense, want)
	}
	if want := []schema.FeatureID{105, 103}; !reflect.DeepEqual(sparse, want) {
		t.Fatalf("sparse = %v, want %v", sparse, want)
	}
	if _, _, err := NewGraph().Add(&Onehot{In: 3, Out: 103}).TensorOutputs(); err == nil {
		t.Fatal("a graph CompilePlan rejects named tensor outputs")
	}
}
