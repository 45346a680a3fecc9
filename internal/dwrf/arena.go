package dwrf

import (
	"sync/atomic"

	"dsi/internal/freelist"
	"dsi/internal/schema"
)

// Arena recycles the columnar buffers behind decoded and transformed
// batches. The DPP worker's hot path — decode a stripe into a Batch,
// run the transform plan (which adds derived columns), write its
// frames, Release — would otherwise allocate fresh Present/Values/
// Offsets slices for every column of every batch; with an arena the
// same buffers cycle through that loop, keeping the capacity earlier
// batches grew them to, so steady-state preprocessing costs a handful
// of free-list hits instead of a per-batch allocation storm. The lists
// keep what they hold across garbage collections, but they do not match
// a column to the feature it held: one drawn for a longer feature than
// its last grows.
//
// Ownership is per column, and one rule carries it: every map entry
// that holds a column is one reference, and a column goes back to an
// arena when its last reference is dropped.
//
//   - A column counts its owners beyond the first (owners), so a column
//     just built — drawn here, made on the heap, a struct literal — has
//     one owner and needs no set-up. A second entry for the same column
//     takes a second reference (View takes one per column).
//   - A batch header has exactly one owner. Release drops the header's
//     reference on each of its columns. A column that loses its last
//     reference goes back to the releasing batch's arena (to the
//     collector for a batch without one); the header and its labels go
//     back too, and none of them is used after.
//   - View is the one way to share: a new header from an arena's batch
//     list over another batch's columns, retaining each, with a copy of
//     its labels. The fleet cache lends only views, never its own
//     header, so every holder may replace its map entries freely.
//   - A column another header may hold is never mutated in place.
//     Replacing one goes through SetDense, SetSparse or SetScoreList,
//     which release the old column; row ops and plan kernels only read
//     their inputs and install freshly built outputs.
//   - Ops and plans must not retain column slices across batches: a
//     released column's backing arrays are reused for the next batch.
//   - One arena per node, and the node's ware.Cache owns it
//     (Cache.Arena). Every batch that can share a column draws from it,
//     so whichever holder drops a column last — often a later session's
//     eviction — returns it to the arena the next decode on the node
//     draws from; only a worker without a cache keeps a private arena.
//
// All methods are safe for concurrent use (every pipeline on a node and
// each one's evaluator pool share one arena) and tolerate a nil
// receiver, which degrades to plain allocation so call sites need no
// branching.
type Arena struct {
	batches freelist.List[*Batch]
	dense   freelist.List[*DenseColumn]
	sparse  freelist.List[*SparseColumn]
	score   freelist.List[*ScoreListColumn]
	labels  freelist.List[[]float32]
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewBatch returns an empty batch for rows rows whose columns will be
// recycled by Release.
func (a *Arena) NewBatch(rows int) *Batch {
	if a == nil {
		return newBatch(rows)
	}
	b, ok := a.batches.Get()
	if !ok {
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
		c, _ = a.dense.Get()
	}
	if c == nil {
		c = &DenseColumn{}
	}
	c.Present = resize(c.Present, rows)
	c.Values = resize(c.Values, rows)
	return c
}

// Sparse returns a sparse column with zeroed offsets for rows rows and
// an empty values slice whose capacity carries over from the previous
// batch (append into it).
func (a *Arena) Sparse(rows int) *SparseColumn {
	var c *SparseColumn
	if a != nil {
		c, _ = a.sparse.Get()
	}
	if c == nil {
		c = &SparseColumn{}
	}
	c.Offsets = resize(c.Offsets, rows+1)
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
		c, _ = a.score.Get()
	}
	if c == nil {
		c = &ScoreListColumn{}
	}
	c.Offsets = resize(c.Offsets, rows+1)
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
	s, _ := a.labels.Get()
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// putLabels recycles a label slice.
func (a *Arena) putLabels(s []float32) {
	if a == nil || s == nil {
		return
	}
	a.labels.Put(s)
}

// owners is a column's reference count: the number of its owners beyond
// the first, so the zero value is a singly owned column.
type owners struct{ extra atomic.Int32 }

// retain adds one owner.
func (o *owners) retain() { o.extra.Add(1) }

// release drops one owner and reports whether it was the last. A count
// of zero needs no atomic write: the caller is then the only owner, and
// nobody can retain what they do not hold.
func (o *owners) release() bool {
	if o.extra.Load() == 0 {
		return true
	}
	if o.extra.Add(-1) >= 0 {
		return false
	}
	o.extra.Store(0) // two owners released at once; this was the last
	return true
}

// column is any of the three column kinds.
type column interface {
	*DenseColumn | *SparseColumn | *ScoreListColumn
	retain()
	release() bool
}

// drop releases one reference on c and, when it was the last, hands c to
// a (the collector's when a is nil).
func drop[C column](a *Arena, c C) {
	if !c.release() || a == nil {
		return
	}
	switch c := any(c).(type) {
	case *DenseColumn:
		a.dense.Put(c)
	case *SparseColumn:
		a.sparse.Put(c)
	case *ScoreListColumn:
		a.score.Put(c)
	}
}

// set installs c under id in m, taking over the caller's reference on
// it, and releases the column it replaces.
func set[C column](b *Batch, m map[schema.FeatureID]C, id schema.FeatureID, c C) {
	if old, ok := m[id]; ok && old != c {
		drop(b.arena, old)
	}
	m[id] = c
}

// SetDense installs c as feature id, releasing the column it replaces.
func (b *Batch) SetDense(id schema.FeatureID, c *DenseColumn) { set(b, b.Dense, id, c) }

// SetSparse installs c as feature id, releasing the column it replaces.
func (b *Batch) SetSparse(id schema.FeatureID, c *SparseColumn) { set(b, b.Sparse, id, c) }

// SetScoreList installs c as feature id, releasing the column it
// replaces.
func (b *Batch) SetScoreList(id schema.FeatureID, c *ScoreListColumn) { set(b, b.ScoreList, id, c) }

// View returns a new header from arena's batch list over b's columns,
// retaining each, with a copy of b's labels (about 1 KB for a 256-row
// split), so the view owns everything it will release. Its maps are the
// caller's to change; its columns are shared and are replaced, never
// written. Once the arena's lists are warm a view allocates nothing.
func (b *Batch) View(arena *Arena) *Batch {
	v := arena.NewBatch(b.Rows)
	for id, c := range b.Dense {
		c.retain()
		v.Dense[id] = c
	}
	for id, c := range b.Sparse {
		c.retain()
		v.Sparse[id] = c
	}
	for id, c := range b.ScoreList {
		c.retain()
		v.ScoreList[id] = c
	}
	if b.Labels != nil {
		v.Labels = arena.Labels(len(b.Labels))
		copy(v.Labels, b.Labels)
	}
	return v
}

// Derive is View followed by releasing b: it turns the caller's header
// into one drawn from arena.
func (b *Batch) Derive(arena *Arena) *Batch {
	v := b.View(arena)
	b.Release()
	return v
}

// Release drops the header's reference on each of its columns (each
// goes back to the batch's arena if that was its last), recycles the
// labels and the header, and empties it. The batch must not be used
// afterwards; a second Release of a header no one drew again is a no-op.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	a := b.arena
	for _, c := range b.Dense {
		drop(a, c)
	}
	clear(b.Dense)
	for _, c := range b.Sparse {
		drop(a, c)
	}
	clear(b.Sparse)
	for _, c := range b.ScoreList {
		drop(a, c)
	}
	clear(b.ScoreList)
	a.putLabels(b.Labels)
	b.Labels = nil
	b.Rows = 0
	if a != nil {
		b.arena = nil
		a.batches.Put(b)
	}
}

// resize returns a zeroed slice of length n reusing s's backing array
// when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
