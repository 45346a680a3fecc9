package dwrf

import (
	"maps"
	"sync"

	"dsi/internal/schema"
)

// Arena recycles the columnar buffers behind decoded and transformed
// batches. The DPP worker's hot path — decode a stripe into a Batch,
// run the transform plan (which adds derived columns), write its
// frames, Release — would otherwise allocate fresh Present/Values/
// Offsets slices for every column of every batch; with an arena the
// same buffers cycle through that loop, keeping the capacity earlier
// batches grew them to, so steady-state preprocessing costs a handful
// of pool hits instead of a per-batch allocation storm. The pools do
// not match a column to the feature it held: one drawn for a longer
// feature than its last grows.
//
// Ownership rules (refcounted since the fleet cache):
//
//   - One arena per node, and the node's ware.Cache owns it
//     (Cache.Arena): a cached batch's columns outlive the session that
//     decoded them, and the last holder — often a later session's
//     eviction — returns them to the batch's own arena, so the next
//     session decodes into the columns the last one evicted. A worker
//     with a cache decodes through the cache's arena; only a worker
//     without one keeps a private arena.
//   - A batch created by Arena.NewBatch (every batch decoded through a
//     *Arena read path) starts EXCLUSIVELY owned: one owner, one
//     Release, which hands every column back. The batch and its columns
//     must not be used after the final Release — consumers that need
//     data longer (frames, row-view samples) copy it out first.
//   - Share transitions a batch to SHARED (counted) ownership with one
//     reference. Call it before the batch becomes visible to other
//     goroutines (the fleet cache does so under its own lock, before
//     insert). From then on Retain adds an owner and each Release drops
//     one; columns return to the arena only when the last owner
//     releases. Release on an exclusive batch keeps its historical
//     semantics, so single-owner paths (the sequential baseline, tests,
//     struct literals) are unchanged.
//   - Derive builds a cheap mutable view over a shared batch: pooled
//     maps aliasing the parent's columns, consuming one reference on
//     it. Transforms may replace the view's map entries freely; a view
//     column is borrowed exactly when the parent holds the same pointer
//     under the same feature ID (labels: the same backing array), and
//     on the view's final Release only the columns that are not
//     borrowed return to the arena — borrowed ones stay with the
//     parent, which is released once. Mutating a shared column IN PLACE
//     is never legal; row ops and plan kernels only read inputs and
//     install freshly built outputs, which is why sharing is sound.
//   - Ops and plans must not retain column slices across batches: a
//     released column's backing arrays are reused for the next batch.
//   - Columns placed into an arena batch must not alias each other:
//     the final Release returns each map entry once, so an aliased
//     column would be pooled twice and handed to two future callers.
//     (A Derive view's borrowed columns are exempt; they are skipped.)
//
// All methods are safe for concurrent use (every pipeline on a node and
// each one's evaluator pool share one arena) and tolerate a nil
// receiver, which degrades to plain allocation so call sites need no
// branching.
type Arena struct {
	batches sync.Pool // *Batch
	dense   sync.Pool // *DenseColumn
	sparse  sync.Pool // *SparseColumn
	score   sync.Pool // *ScoreListColumn
	labels  sync.Pool // *[]float32
	// boxes holds the emptied *[]float32 headers Labels takes out of
	// labels, so putLabels re-boxes a slice without allocating.
	boxes sync.Pool
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewBatch returns an empty batch for rows rows whose columns will be
// recycled by Release.
func (a *Arena) NewBatch(rows int) *Batch {
	if a == nil {
		return newBatch(rows)
	}
	b, _ := a.batches.Get().(*Batch)
	if b == nil {
		b = newBatch(rows)
	}
	b.Rows = rows
	b.arena = a
	return b
}

// Dense returns a zeroed dense column for rows rows.
func (a *Arena) Dense(rows int) *DenseColumn {
	var c *DenseColumn
	if a != nil {
		c, _ = a.dense.Get().(*DenseColumn)
	}
	if c == nil {
		c = &DenseColumn{}
	}
	c.Present = resizeBools(c.Present, rows)
	c.Values = resizeF32(c.Values, rows)
	return c
}

// Sparse returns a sparse column with zeroed offsets for rows rows and
// an empty values slice whose capacity carries over from the previous
// batch (append into it).
func (a *Arena) Sparse(rows int) *SparseColumn {
	var c *SparseColumn
	if a != nil {
		c, _ = a.sparse.Get().(*SparseColumn)
	}
	if c == nil {
		c = &SparseColumn{}
	}
	c.Offsets = resizeI32(c.Offsets, rows+1)
	if c.Values == nil {
		c.Values = []int64{}
	} else {
		c.Values = c.Values[:0]
	}
	// Reset to the plain representation; a dictionary decode or kernel
	// re-fills Dict (capacity carries over like the value slices).
	c.Dict = c.Dict[:0]
	return c
}

// ScoreList returns a score-list column with zeroed offsets for rows
// rows and an empty values slice.
func (a *Arena) ScoreList(rows int) *ScoreListColumn {
	var c *ScoreListColumn
	if a != nil {
		c, _ = a.score.Get().(*ScoreListColumn)
	}
	if c == nil {
		c = &ScoreListColumn{}
	}
	c.Offsets = resizeI32(c.Offsets, rows+1)
	if c.Values == nil {
		c.Values = []schema.ScoredValue{}
	} else {
		c.Values = c.Values[:0]
	}
	return c
}

// Labels returns a label slice of length n (contents unspecified; the
// caller overwrites every entry).
func (a *Arena) Labels(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	sp, _ := a.labels.Get().(*[]float32)
	if sp == nil || cap(*sp) < n {
		return make([]float32, n)
	}
	s := (*sp)[:n]
	*sp = nil
	a.boxes.Put(sp)
	return s
}

// PutDense recycles a dense column no longer referenced anywhere.
func (a *Arena) PutDense(c *DenseColumn) {
	if a == nil || c == nil {
		return
	}
	a.dense.Put(c)
}

// PutSparse recycles a sparse column no longer referenced anywhere.
func (a *Arena) PutSparse(c *SparseColumn) {
	if a == nil || c == nil {
		return
	}
	a.sparse.Put(c)
}

// PutScoreList recycles a score-list column no longer referenced
// anywhere.
func (a *Arena) PutScoreList(c *ScoreListColumn) {
	if a == nil || c == nil {
		return
	}
	a.score.Put(c)
}

// putLabels recycles a label slice.
func (a *Arena) putLabels(s []float32) {
	if a == nil || s == nil {
		return
	}
	sp, _ := a.boxes.Get().(*[]float32)
	if sp == nil {
		sp = new([]float32)
	}
	*sp = s
	a.labels.Put(sp)
}

// Arena reports the arena that owns the batch's columns, nil for
// ordinary batches. The transform plan uses it to decide whether a
// column it replaces can be recycled immediately.
func (b *Batch) Arena() *Arena { return b.arena }

// Share transitions the batch from exclusive to counted ownership,
// holding one reference on behalf of the caller. It must happen before
// the batch becomes visible to any other goroutine (the fleet cache
// shares under its own lock, before insert); sharing an already-shared
// batch is a bug and panics.
func (b *Batch) Share() {
	if !b.refs.CompareAndSwap(0, 1) {
		panic("dwrf: Share on an already shared batch")
	}
}

// Retain adds one owner to a shared batch. Retaining an exclusive
// (unshared) batch is a bug — there is no count tracking its single
// owner — and panics.
func (b *Batch) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("dwrf: Retain on an unshared batch")
	}
}

// Shared reports whether the batch participates in shared ownership:
// either reference-counted itself or a Derive view borrowing columns
// from a parent. The transform plan checks it before recycling replaced
// columns in place — a shared column may be visible to other consumers.
func (b *Batch) Shared() bool {
	return b != nil && (b.refs.Load() != 0 || b.parent != nil)
}

// Derive returns a mutable view over a shared batch: maps drawn from
// arena's batch pool aliasing b's columns and labels, with b's row
// count. The view CONSUMES one reference on b — the caller's, taken via
// Retain or handed out by the cache — and releases it on the view's own
// final Release. Transforms may replace the view's map entries; a
// column the parent still holds under the same ID is never returned to
// any arena by the view. Once the arena's pools are warm a view
// allocates nothing.
func (b *Batch) Derive(arena *Arena) *Batch {
	if b.refs.Load() == 0 {
		panic("dwrf: Derive from an unshared batch")
	}
	d := arena.NewBatch(b.Rows)
	maps.Copy(d.Dense, b.Dense)
	maps.Copy(d.Sparse, b.Sparse)
	maps.Copy(d.ScoreList, b.ScoreList)
	d.Labels = b.Labels
	d.parent = b
	return d
}

// Release drops one ownership reference. For an exclusive batch (never
// Shared) it frees immediately, preserving the historical single-owner
// contract: a no-op for batches not created by Arena.NewBatch
// (BatchFromSamples, struct literals, gob), safe to call twice, and the
// batch must not be used afterwards. For a shared batch it decrements
// the count and frees only when the last owner releases — which makes
// the worker's unconditional Release after writing its frames correct
// even when the batch is simultaneously held by the fleet cache or by
// another session's view.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	if b.refs.Load() != 0 {
		if n := b.refs.Add(-1); n > 0 {
			return
		} else if n < 0 {
			panic("dwrf: Release without matching Share/Retain")
		}
	}
	b.free()
}

// free returns the batch's own columns to its arena (skipping those a
// Derive view borrows from its parent), recycles the batch struct, and
// releases the parent of a view. The parent is read here, before the
// view's reference on it goes, so its maps are still intact. Idempotent
// for already-freed and ordinary batches.
func (b *Batch) free() {
	a, p := b.arena, b.parent
	if a == nil && p == nil {
		return
	}
	b.arena, b.parent = nil, nil
	for id, c := range b.Dense {
		if p == nil || p.Dense[id] != c {
			a.PutDense(c)
		}
	}
	clear(b.Dense)
	for id, c := range b.Sparse {
		if p == nil || p.Sparse[id] != c {
			a.PutSparse(c)
		}
	}
	clear(b.Sparse)
	for id, c := range b.ScoreList {
		if p == nil || p.ScoreList[id] != c {
			a.PutScoreList(c)
		}
	}
	clear(b.ScoreList)
	if p == nil || !sameArray(p.Labels, b.Labels) {
		a.putLabels(b.Labels)
	}
	b.Labels = nil
	b.Rows = 0
	if a != nil {
		a.batches.Put(b)
	}
	if p != nil {
		p.Release()
	}
}

// sameArray reports whether two label slices start at the same element
// of one backing array — a view's labels are borrowed exactly when they
// are the parent's. Slices without capacity own no memory and never
// match.
func sameArray(x, y []float32) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0]
}

// resizeBools returns a zeroed bool slice of length n reusing s's
// backing array when it fits.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeF32 returns a zeroed float32 slice of length n reusing s's
// backing array when it fits.
func resizeF32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeI32 returns a zeroed int32 slice of length n reusing s's
// backing array when it fits.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}
