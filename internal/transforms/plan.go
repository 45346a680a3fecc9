package transforms

import (
	"fmt"
	"slices"

	"dsi/internal/dwrf"
	"dsi/internal/freelist"
	"dsi/internal/schema"
)

// This file is the compiled execution engine for the preprocessing
// graph. Graph.Run interprets: every Apply resolves its features
// through the batch's map[FeatureID] columns and allocates fresh output
// columns, so a steady-state DPP worker pays a map hash per op per
// batch and an allocation storm per batch — on the layer where the
// paper says the worker's cycles actually go (Figure 9: transformation
// dominates DPP CPU). CompilePlan instead lowers the topo-sorted ops
// once per process per op list into a Plan (plantable.go):
//
//   - Every input and output FeatureID is resolved to a dense / sparse
//     / score-list slot index at compile time. Per-batch execution
//     walks flat slot arrays; the only map touches left are one bind
//     per raw input feature and one publish per output feature per
//     batch (not per op per row).
//   - Op configuration is validated at compile time, so kernels run
//     branch-light.
//   - Chains of elementwise dense ops (Logit, BoxCox, Clamp,
//     GetLocalHour — the denseMapper interface) fuse into a single
//     pass over the rows that still materializes every intermediate
//     column, keeping outputs byte-identical to the interpreter.
//   - Output columns come from a dwrf.Arena — the node's, which its
//     ware.Cache owns — so a transform stage recycles buffers that any
//     earlier batch on the node grew, whichever session decoded it and
//     whichever evicted it.
//   - The execution state a run needs (slot arrays, dictionary
//     materializations, hash prefix tables) is plan-agnostic scratch on
//     one process-wide free list, so a new session's plan starts from
//     buffers an earlier session's runs grew.
//
// Plan.Run produces byte-identical columns and identical Stats to
// Graph.Run (plan_test.go pins this for every op); ops the compiler
// does not recognize make CompilePlan fail, and a graph that does not
// compile fails the DPP worker that would run it.

// Plan is a compiled Graph. It is compiled once per process per op list
// by CompilePlan, which hands every later caller with an equal op list
// the same Plan; a Plan is immutable once compiled, and Run is safe for
// concurrent use (each call borrows an execution state from the
// process-wide free list), which is how a worker's evaluator pool and
// every session over the same ops share one Plan.
type Plan struct {
	rowOps []Op
	steps  []planStep

	// fingerprint is the stable digest of the compiled op list, set
	// once by CompilePlan (see Fingerprint).
	fingerprint string

	// Raw features bound from the batch maps into slots once per run.
	rawDense  []slotBind
	rawSparse []slotBind

	// Slot counts per column kind.
	nDense, nSparse, nScore int

	// Outputs published from slots back into the batch maps after the
	// steps run.
	pubDense  []slotBind
	pubSparse []slotBind
	pubScore  []slotBind
}

// slotBind associates a feature ID with a slot index, for raw-input
// binding and output publishing.
type slotBind struct {
	id   schema.FeatureID
	slot int
}

// planStep is one executable unit: a single op kernel or a fused chain
// of elementwise dense ops.
type planStep struct {
	// op names the step in errors (the first member for fused chains).
	op  Op
	run func(e *planExec) error
}

// fusedDense is a chain of elementwise dense ops executed as one pass:
// member k+1's input is member k's output, so the running value flows
// through the scalar kernels while every intermediate column is still
// materialized.
type fusedDense struct {
	in      int
	members []fusedMember
}

type fusedMember struct {
	op  denseMapper
	out int
}

// planExec is the per-run execution state: flat slot arrays plus
// reusable scratch. It belongs to no plan — reset sizes the slots for
// the plan about to run, and every other buffer is capacity-only
// scratch — so one taken from planExecs serves whichever plan runs
// next. Each Run borrows its own, so concurrent runs never share state.
type planExec struct {
	rows   int
	dense  []*dwrf.DenseColumn
	sparse []*dwrf.SparseColumn
	score  []*dwrf.ScoreListColumn

	// Shared all-absent inputs for features missing from the batch
	// (coverage < 1). Kernels only read inputs, so sharing is safe; the
	// backing arrays are only ever zero, so resizing never re-clears.
	emptyDense  dwrf.DenseColumn
	emptySparse dwrf.SparseColumn

	// scratch is IdListTransform's sorted membership buffer.
	scratch []int64

	// matVals/matDone lazily cache, per sparse slot, the materialized
	// values of dictionary-indexed input columns: kernels that need raw
	// values (IdListTransform, the Cartesian/NGram value sides) share
	// one materialization per column per run, while dict-preserving
	// kernels never pay it. matVals' buffers are capacity-only scratch
	// that recycle across runs and plans; matDone is cleared each reset,
	// so no run reads what another wrote.
	matVals [][]int64
	matDone []bool
	// prefix holds per-distinct-value pre-mixed hash states for the
	// dictionary-aware Cartesian/NGram kernels; scoreTab the
	// per-distinct scored values of ComputeScore. Rebuilt by each step
	// that uses them, so sequential steps share one buffer.
	prefix   []uint64
	scoreTab []schema.ScoredValue

	arena *dwrf.Arena
	stats Stats // the run's, returned by finish
}

// sparseVals returns a slot's materialized feature values: the column's
// own Values for plain columns (no copy), or an exec-cached
// materialization for dictionary-indexed ones — each dict column
// materializes at most once per run regardless of how many kernels need
// raw values.
func (e *planExec) sparseVals(slot int) []int64 {
	src := e.sparse[slot]
	if !src.IsDict() {
		return src.Values
	}
	if e.matDone[slot] {
		return e.matVals[slot]
	}
	buf := resize(e.matVals[slot], len(src.Values))
	for i, idx := range src.Values {
		buf[i] = src.Dict[idx]
	}
	e.matVals[slot] = buf
	e.matDone[slot] = true
	return buf
}

// dictPrefixes fills e.prefix with the pre-mixed hash state of every
// dictionary entry (the shared first-argument contribution to hash64).
func (e *planExec) dictPrefixes(dict []int64) []uint64 {
	pref := resize(e.prefix, len(dict))
	for d, v := range dict {
		pref[d] = mix64(hashSeed, v)
	}
	e.prefix = pref
	return pref
}

// reset prepares the exec's slots for a run's kernels over rows rows.
func (e *planExec) reset(p *Plan, rows int, arena *dwrf.Arena) {
	e.rows = rows
	e.arena = arena
	e.dense = resizeSlots(e.dense, p.nDense)
	e.sparse = resizeSlots(e.sparse, p.nSparse)
	e.score = resizeSlots(e.score, p.nScore)
	e.matVals = resizeKeep(e.matVals, p.nSparse)
	e.matDone = resizeSlots(e.matDone, p.nSparse)
	e.emptyDense.Present = resize(e.emptyDense.Present, rows)
	e.emptyDense.Values = resize(e.emptyDense.Values, rows)
	e.emptySparse.Offsets = resize(e.emptySparse.Offsets, rows+1)
}

// finish drops column references so an idle exec never pins batch
// memory between runs, returns e to the free list, and returns the
// run's stats.
func (e *planExec) finish() Stats {
	clear(e.dense)
	clear(e.sparse)
	clear(e.score)
	e.arena = nil
	stats := e.stats
	planExecs.Put(e)
	return stats
}

// planExecs holds the idle execution states of every plan in the
// process: scratch belongs to no plan, so the first runs after a
// collection — or of a newly compiled plan — do not regrow it. It holds
// as many as a node's runs once borrowed at the same time.
var planExecs freelist.List[*planExec]

// resizeSlots returns a zero-cleared slice of n entries (column
// pointers, done flags).
func resizeSlots[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeKeep grows a slice to n entries preserving existing contents —
// used for per-slot scratch buffers that recycle their capacity across
// runs.
func resizeKeep[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// resize returns s with length n, reusing its capacity without
// clearing: its callers either overwrite every entry before reading one
// (scratch, recycled values) or only ever hold the zero value in it (the
// shared all-absent inputs), so stale contents are never seen.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// account folds one executed op into the run's stats, exactly as the
// interpreter does.
func (e *planExec) account(op Op, values int64) {
	cost := op.Cost()
	cls := op.Class()
	e.stats.ValuesByClass[cls] += values
	e.stats.CyclesByClass[cls] += float64(values) * cost.CyclesPerValue
	e.stats.MemBytes += float64(values) * cost.MemBytesPerValue
	e.stats.OpsRun++
}

// newSparse returns an arena-recycled output column.
func (e *planExec) newSparse() *dwrf.SparseColumn { return e.arena.Sparse(e.rows) }

// CompilePlan returns the graph's compiled Plan: CompilePlan(g.Ops()),
// so a graph whose ops this process compiled before gets that Plan. It
// fails for op configurations the interpreter would reject at Apply time
// (surfacing them per session instead of per batch), for a graph that
// does not compile (Compile's errors) and for Op implementations outside
// this package, which have no compiled kernel; a DPP worker whose ops do
// not compile fails.
func (g *Graph) CompilePlan() (*Plan, error) { return CompilePlan(g.ops) }

// TensorOutputs names the features a session delivers as tensors: the
// dense and sparse outputs of the compiled plan that no op consumes, in
// Ops() order. The kind of each is the slot kind the compiler assigned
// it; score lists have no tensor kind and row ops produce no feature, so
// neither appears. It fails where CompilePlan fails.
func (g *Graph) TensorOutputs() (dense, sparse []schema.FeatureID, err error) {
	c, err := g.lowerPlan()
	if err != nil {
		return nil, nil, err
	}
	consumed := make(map[schema.FeatureID]bool)
	for _, op := range g.ops {
		for _, in := range op.Inputs() {
			consumed[in] = true
		}
	}
	for _, op := range g.ops {
		id := op.Output()
		if consumed[id] {
			continue
		}
		if _, ok := c.denseSlots[id]; ok {
			dense = append(dense, id)
		} else if _, ok := c.sparseSlots[id]; ok {
			sparse = append(sparse, id)
		}
	}
	return dense, sparse, nil
}

// lowerPlan compiles the execution order if needed and lowers every op,
// returning the compiler with its feature→slot resolution intact.
func (g *Graph) lowerPlan() (*planCompiler, error) {
	if g.sorted == nil {
		if err := g.Compile(); err != nil {
			return nil, err
		}
	}
	p := &Plan{}
	c := &planCompiler{
		p:           p,
		denseSlots:  make(map[schema.FeatureID]int),
		sparseSlots: make(map[schema.FeatureID]int),
		rawDense:    make(map[schema.FeatureID]int),
		rawSparse:   make(map[schema.FeatureID]int),
	}
	for _, op := range g.sorted {
		if op.Class() == RowOp {
			p.rowOps = append(p.rowOps, op)
			continue
		}
		if err := c.lower(op); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Fingerprint returns the plan's stable content digest, the 16 hex
// digits of the hash of its op list's canonical encoding (opKey): plans
// of equal op lists (same op sequence, same configuration) fingerprint
// equally across processes, so it can key content-addressed caches of
// transform outputs (ware.WareID). Computed once at compile time.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// planCompiler holds the feature→slot resolution state during lowering.
type planCompiler struct {
	p *Plan
	// denseSlots/sparseSlots map produced features to their output
	// slots; rawDense/rawSparse map raw batch features to their bound
	// slots. Producers always lower before their consumers (topo
	// order), so a feature is raw-bound only if no op produces it.
	denseSlots  map[schema.FeatureID]int
	sparseSlots map[schema.FeatureID]int
	rawDense    map[schema.FeatureID]int
	rawSparse   map[schema.FeatureID]int
	// lastFused is the still-extendable fusion group of the previous
	// step, nil when the previous step is not a dense-map chain.
	lastFused *fusedDense
}

// denseIn resolves a dense input feature to its slot, binding it from
// the batch if no op produces it.
func (c *planCompiler) denseIn(id schema.FeatureID) int {
	if s, ok := c.denseSlots[id]; ok {
		return s
	}
	if s, ok := c.rawDense[id]; ok {
		return s
	}
	s := c.p.nDense
	c.p.nDense++
	c.rawDense[id] = s
	c.p.rawDense = append(c.p.rawDense, slotBind{id, s})
	return s
}

// sparseIn resolves a sparse input feature to its slot.
func (c *planCompiler) sparseIn(id schema.FeatureID) int {
	if s, ok := c.sparseSlots[id]; ok {
		return s
	}
	if s, ok := c.rawSparse[id]; ok {
		return s
	}
	s := c.p.nSparse
	c.p.nSparse++
	c.rawSparse[id] = s
	c.p.rawSparse = append(c.p.rawSparse, slotBind{id, s})
	return s
}

// denseOut allocates the output slot for a produced dense feature.
func (c *planCompiler) denseOut(id schema.FeatureID) int {
	s := c.p.nDense
	c.p.nDense++
	c.denseSlots[id] = s
	c.p.pubDense = append(c.p.pubDense, slotBind{id, s})
	return s
}

// sparseOut allocates the output slot for a produced sparse feature.
func (c *planCompiler) sparseOut(id schema.FeatureID) int {
	s := c.p.nSparse
	c.p.nSparse++
	c.sparseSlots[id] = s
	c.p.pubSparse = append(c.p.pubSparse, slotBind{id, s})
	return s
}

// scoreOut allocates the output slot for a produced score-list feature.
func (c *planCompiler) scoreOut(id schema.FeatureID) int {
	s := c.p.nScore
	c.p.nScore++
	c.p.pubScore = append(c.p.pubScore, slotBind{id, s})
	return s
}

// step appends a non-fusable step and seals any open fusion chain.
func (c *planCompiler) step(op Op, run func(e *planExec) error) {
	c.lastFused = nil
	c.p.steps = append(c.p.steps, planStep{op: op, run: run})
}

// lower compiles one op into a step (or extends the current fused
// chain).
func (c *planCompiler) lower(op Op) error {
	switch o := op.(type) {
	case *Logit:
		return c.lowerDenseMap(o)
	case *BoxCox:
		return c.lowerDenseMap(o)
	case *Clamp:
		return c.lowerDenseMap(o)
	case *GetLocalHour:
		return c.lowerDenseMap(o)
	case *Onehot:
		if o.Buckets <= 0 {
			return fmt.Errorf("transforms: Onehot needs positive bucket count")
		}
		in, out := c.denseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.dense[in]
			dst := e.newSparse()
			for i := 0; i < e.rows; i++ {
				dst.Offsets[i] = int32(len(dst.Values))
				if src.Present[i] {
					dst.Values = append(dst.Values, o.bucketIndex(src.Values[i]))
				}
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, int64(e.rows))
			return nil
		})
	case *Bucketize:
		if err := o.validate(); err != nil {
			return err
		}
		in, out := c.denseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.dense[in]
			dst := e.newSparse()
			for i := 0; i < e.rows; i++ {
				dst.Offsets[i] = int32(len(dst.Values))
				if src.Present[i] {
					dst.Values = append(dst.Values, o.bucketOf(src.Values[i]))
				}
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, int64(e.rows))
			return nil
		})
	case *SigridHash:
		if o.MaxValue <= 0 {
			return fmt.Errorf("transforms: SigridHash needs positive MaxValue")
		}
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			dst.Offsets = append(dst.Offsets[:0], src.Offsets...)
			if src.IsDict() {
				// Hash each DISTINCT value once; the per-occurrence
				// indices carry over unchanged, so the output stays
				// dictionary-indexed.
				dst.Dict = resize(dst.Dict, len(src.Dict))
				for d, v := range src.Dict {
					dst.Dict[d] = sigridBucket(v, o.Salt, o.MaxValue)
				}
				dst.Values = append(dst.Values, src.Values...)
			} else {
				dst.Values = resize(dst.Values, len(src.Values))
				for i, v := range src.Values {
					dst.Values[i] = sigridBucket(v, o.Salt, o.MaxValue)
				}
			}
			e.sparse[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	case *FirstX:
		if o.X < 0 {
			return fmt.Errorf("transforms: FirstX needs non-negative X")
		}
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			// Truncation works the same in index space, so the loop is
			// representation-agnostic; a dict input just carries its
			// dictionary over (copied — a column owns its buffers).
			// The kept lengths are summed first so Values grows once.
			kept := 0
			for i := 0; i < e.rows; i++ {
				kept += min(int(src.Offsets[i+1]-src.Offsets[i]), o.X)
			}
			dst.Values = slices.Grow(dst.Values, kept)
			for i := 0; i < e.rows; i++ {
				dst.Offsets[i] = int32(len(dst.Values))
				vals := src.RowValues(i)
				if len(vals) > o.X {
					vals = vals[:o.X]
				}
				dst.Values = append(dst.Values, vals...)
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			if src.IsDict() {
				dst.Dict = append(dst.Dict, src.Dict...)
			}
			e.sparse[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	case *PositiveModulus:
		if o.M <= 0 {
			return fmt.Errorf("transforms: PositiveModulus needs positive modulus")
		}
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			dst.Offsets = append(dst.Offsets[:0], src.Offsets...)
			if src.IsDict() {
				// Elementwise op on a dict column: transform each distinct
				// value once, keep the indices as-is.
				dst.Dict = resize(dst.Dict, len(src.Dict))
				for d, v := range src.Dict {
					dst.Dict[d] = positiveMod(v, o.M)
				}
				dst.Values = append(dst.Values, src.Values...)
			} else {
				dst.Values = resize(dst.Values, len(src.Values))
				for i, v := range src.Values {
					dst.Values[i] = positiveMod(v, o.M)
				}
			}
			e.sparse[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	case *Enumerate:
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			for i := 0; i < e.rows; i++ {
				dst.Offsets[i] = int32(len(dst.Values))
				n := len(src.RowValues(i))
				for j := 0; j < n; j++ {
					dst.Values = append(dst.Values, int64(j))
				}
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	case *MapId:
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			dst.Offsets = append(dst.Offsets[:0], src.Offsets...)
			if src.IsDict() {
				dst.Dict = resize(dst.Dict, len(src.Dict))
				for d, v := range src.Dict {
					if mapped, ok := o.Mapping[v]; ok {
						dst.Dict[d] = mapped
					} else {
						dst.Dict[d] = o.Default
					}
				}
				dst.Values = append(dst.Values, src.Values...)
			} else {
				dst.Values = resize(dst.Values, len(src.Values))
				for i, v := range src.Values {
					if mapped, ok := o.Mapping[v]; ok {
						dst.Values[i] = mapped
					} else {
						dst.Values[i] = o.Default
					}
				}
			}
			e.sparse[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	case *IdListTransform:
		a, bb, out := c.sparseIn(o.A), c.sparseIn(o.B), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			sa, sb := e.sparse[a], e.sparse[bb]
			// Intersection compares actual values, so dict inputs are
			// materialized once per stripe via the slot cache.
			va, vb := e.sparseVals(a), e.sparseVals(bb)
			dst := e.newSparse()
			var processed int64
			for i := 0; i < e.rows; i++ {
				dst.Offsets[i] = int32(len(dst.Values))
				av := va[sa.Offsets[i]:sa.Offsets[i+1]]
				bv := vb[sb.Offsets[i]:sb.Offsets[i+1]]
				processed += int64(len(av) + len(bv))
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				dst.Values, e.scratch = intersectInto(dst.Values, av, bv, e.scratch)
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, processed)
			return nil
		})
	case *Cartesian:
		a, bb, out := c.sparseIn(o.A), c.sparseIn(o.B), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			sa, sb := e.sparse[a], e.sparse[bb]
			dst := e.newSparse()
			vb := e.sparseVals(bb)
			if sa.IsDict() {
				// Fold each distinct A value into the hash state once per
				// stripe; rows then combine the precomputed prefix with B.
				pref := e.dictPrefixes(sa.Dict)
				for i := 0; i < e.rows; i++ {
					dst.Offsets[i] = int32(len(dst.Values))
					dst.Values = crossPrefixInto(dst.Values,
						sa.Values[sa.Offsets[i]:sa.Offsets[i+1]], pref,
						vb[sb.Offsets[i]:sb.Offsets[i+1]], o.MaxOutput)
				}
			} else {
				va := sa.Values
				for i := 0; i < e.rows; i++ {
					dst.Offsets[i] = int32(len(dst.Values))
					dst.Values = crossInto(dst.Values,
						va[sa.Offsets[i]:sa.Offsets[i+1]],
						vb[sb.Offsets[i]:sb.Offsets[i+1]], o.MaxOutput)
				}
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, int64(len(dst.Values)))
			return nil
		})
	case *NGram:
		if o.N <= 0 {
			return fmt.Errorf("transforms: NGram needs positive N")
		}
		in, out := c.sparseIn(o.In), c.sparseOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.newSparse()
			if src.IsDict() {
				// Seed each n-gram's hash from the per-dict-entry prefix
				// table; only the n-1 continuation values fold per element.
				pref := e.dictPrefixes(src.Dict)
				vals := e.sparseVals(in)
				for i := 0; i < e.rows; i++ {
					dst.Offsets[i] = int32(len(dst.Values))
					dst.Values = ngramPrefixInto(dst.Values,
						src.Values[src.Offsets[i]:src.Offsets[i+1]], pref,
						vals[src.Offsets[i]:src.Offsets[i+1]], o.N)
				}
			} else {
				for i := 0; i < e.rows; i++ {
					dst.Offsets[i] = int32(len(dst.Values))
					dst.Values = ngramInto(dst.Values, src.RowValues(i), o.N)
				}
			}
			dst.Offsets[e.rows] = int32(len(dst.Values))
			e.sparse[out] = dst
			e.account(op, int64(len(dst.Values))*int64(o.N))
			return nil
		})
	case *ComputeScore:
		in, out := c.sparseIn(o.In), c.scoreOut(o.Out)
		c.step(op, func(e *planExec) error {
			src := e.sparse[in]
			dst := e.arena.ScoreList(e.rows)
			dst.Offsets = append(dst.Offsets[:0], src.Offsets...)
			if cap(dst.Values) < len(src.Values) {
				dst.Values = make([]schema.ScoredValue, len(src.Values))
			} else {
				dst.Values = dst.Values[:len(src.Values)]
			}
			if src.IsDict() {
				// Score each distinct value once, then gather through the
				// per-stripe table by index.
				tab := resize(e.scoreTab, len(src.Dict))
				for d, v := range src.Dict {
					tab[d] = o.scored(v)
				}
				e.scoreTab = tab
				for i, idx := range src.Values {
					dst.Values[i] = tab[idx]
				}
			} else {
				for i, v := range src.Values {
					dst.Values[i] = o.scored(v)
				}
			}
			e.score[out] = dst
			e.account(op, int64(len(src.Values)))
			return nil
		})
	default:
		return fmt.Errorf("transforms: no compiled kernel for %T", op)
	}
	return nil
}

// lowerDenseMap compiles an elementwise dense op, extending the
// previous step's fusion chain when this op consumes its last output.
func (c *planCompiler) lowerDenseMap(o denseMapper) error {
	if err := o.validateMap(); err != nil {
		return err
	}
	if g := c.lastFused; g != nil {
		last := g.members[len(g.members)-1]
		if s, ok := c.denseSlots[o.mapIn()]; ok && s == last.out {
			g.members = append(g.members, fusedMember{op: o, out: c.denseOut(o.Output())})
			return nil
		}
	}
	in := c.denseIn(o.mapIn())
	g := &fusedDense{in: in, members: []fusedMember{{op: o, out: c.denseOut(o.Output())}}}
	run := func(e *planExec) error {
		src := e.dense[g.in]
		for _, m := range g.members {
			e.dense[m.out] = e.arena.Dense(e.rows)
		}
		for i := 0; i < e.rows; i++ {
			if !src.Present[i] {
				continue
			}
			v := src.Values[i]
			for _, m := range g.members {
				v = m.op.mapValue(v)
				out := e.dense[m.out]
				out.Present[i] = true
				out.Values[i] = v
			}
		}
		for _, m := range g.members {
			e.account(m.op, int64(e.rows))
		}
		return nil
	}
	c.p.steps = append(c.p.steps, planStep{op: o, run: run})
	c.lastFused = g
	return nil
}

// Run executes the compiled plan on the batch: row ops first (they
// rebuild the whole batch), then one map bind per raw input, the slot
// kernels, and one map publish per output. Output columns come from
// arena (nil degrades to plain allocation) and become part of the
// batch, so Batch.Release recycles inputs and outputs alike after
// tensors are materialized. Stats are identical to Graph.Run's.
//
// Run is safe for concurrent use on distinct batches.
func (p *Plan) Run(b *dwrf.Batch, arena *dwrf.Arena) (Stats, error) {
	e, ok := planExecs.Get()
	if !ok {
		e = new(planExec)
	}
	e.stats = Stats{RowsIn: b.Rows}
	for _, op := range p.rowOps {
		values, err := op.Apply(b)
		if err != nil {
			return e.finish(), fmt.Errorf("transforms: %s: %w", op.Name(), err)
		}
		e.account(op, values)
	}
	e.reset(p, b.Rows, arena)

	for _, rb := range p.rawDense {
		if col, ok := b.Dense[rb.id]; ok {
			e.dense[rb.slot] = col
		} else {
			e.dense[rb.slot] = &e.emptyDense
		}
	}
	for _, rb := range p.rawSparse {
		if col, ok := b.Sparse[rb.id]; ok {
			e.sparse[rb.slot] = col
		} else {
			e.sparse[rb.slot] = &e.emptySparse
		}
	}

	for i := range p.steps {
		if err := p.steps[i].run(e); err != nil {
			return e.finish(), fmt.Errorf("transforms: %s: %w", p.steps[i].op.Name(), err)
		}
	}

	// Publish outputs into the batch maps. A published feature is never
	// raw-bound (its consumers resolve to the produced slot), so the
	// column it replaces — a previous run's output over the same batch —
	// is released: recycled if this batch held its last reference, left
	// to its other holders if not.
	for _, pb := range p.pubDense {
		b.SetDense(pb.id, e.dense[pb.slot])
	}
	for _, pb := range p.pubSparse {
		b.SetSparse(pb.id, e.sparse[pb.slot])
	}
	for _, pb := range p.pubScore {
		b.SetScoreList(pb.id, e.score[pb.slot])
	}

	e.stats.RowsOut = b.Rows
	return e.finish(), nil
}
