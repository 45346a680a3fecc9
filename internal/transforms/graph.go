package transforms

import (
	"fmt"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
)

// Stats accounts the resources a graph execution consumed, by op class.
// Cycles and memory traffic come from each op's cost model applied to the
// values it actually processed; feeding Figure 9's utilization breakdown.
type Stats struct {
	ValuesByClass [numClasses]int64
	CyclesByClass [numClasses]float64
	MemBytes      float64
	OpsRun        int
	RowsIn        int
	RowsOut       int
}

// TotalCycles sums cycles across classes.
func (s Stats) TotalCycles() float64 {
	var total float64
	for _, c := range s.CyclesByClass {
		total += c
	}
	return total
}

// ClassShare reports class c's share of total cycles, in [0,1].
func (s Stats) ClassShare(c Class) float64 {
	total := s.TotalCycles()
	if total == 0 {
		return 0
	}
	return s.CyclesByClass[c] / total
}

// Graph is a DAG of transformation ops. A single derived feature may
// require a chain of multiple ops (§7.2's example: Bucketize(A),
// FirstX(B), NGram of the intermediates, SigridHash the result).
type Graph struct {
	ops []Op
	// sorted is the topologically ordered execution plan, built by
	// Compile.
	sorted []Op
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Add appends an op to the graph. Ops may be added in any order; Compile
// establishes execution order.
func (g *Graph) Add(ops ...Op) *Graph {
	g.ops = append(g.ops, ops...)
	g.sorted = nil
	return g
}

// Ops returns the ops in insertion order.
func (g *Graph) Ops() []Op { return g.ops }

// Compile validates the graph and builds the execution order:
//   - at most one producer per output feature,
//   - no dependency cycles,
//   - row ops (Sampling) run first.
//
// Inputs with no producer are assumed to come from the batch (raw
// features). CompilePlan lowers the compiled order further into the
// slot-indexed execution Plan the DPP worker's hot path runs (see
// plan.go); Run interprets it.
func (g *Graph) Compile() error {
	producers := make(map[schema.FeatureID]Op)
	for _, op := range g.ops {
		out := op.Output()
		if op.Class() == RowOp {
			continue
		}
		if prev, ok := producers[out]; ok {
			return fmt.Errorf("transforms: feature %d produced by both %s and %s", out, prev.Name(), op.Name())
		}
		producers[out] = op
	}

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[schema.FeatureID]int)
	var order []Op
	var visit func(op Op) error
	visit = func(op Op) error {
		out := op.Output()
		switch state[out] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("transforms: dependency cycle through feature %d (%s)", out, op.Name())
		}
		state[out] = visiting
		for _, in := range op.Inputs() {
			if dep, ok := producers[in]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[out] = done
		order = append(order, op)
		return nil
	}

	var rowOps []Op
	for _, op := range g.ops {
		if op.Class() == RowOp {
			rowOps = append(rowOps, op)
		}
	}
	for _, op := range g.ops {
		if op.Class() == RowOp {
			continue
		}
		if err := visit(op); err != nil {
			return err
		}
	}
	g.sorted = append(rowOps, order...)
	return nil
}

// Run executes the graph on the batch, compiling first if needed.
func (g *Graph) Run(b *dwrf.Batch) (Stats, error) {
	if g.sorted == nil {
		if err := g.Compile(); err != nil {
			return Stats{}, err
		}
	}
	stats := Stats{RowsIn: b.Rows}
	// The interpreter's reference ops operate on plain value slices;
	// dictionary-indexed columns from the v2 reader are expanded up
	// front. The compiled Plan path keeps dicts and exploits them.
	b.MaterializeDicts()
	for _, op := range g.sorted {
		values, err := op.Apply(b)
		if err != nil {
			return stats, fmt.Errorf("transforms: %s: %w", op.Name(), err)
		}
		cost := op.Cost()
		cls := op.Class()
		stats.ValuesByClass[cls] += values
		stats.CyclesByClass[cls] += float64(values) * cost.CyclesPerValue
		stats.MemBytes += float64(values) * cost.MemBytesPerValue
		stats.OpsRun++
	}
	stats.RowsOut = b.Rows
	return stats, nil
}

// StandardGraph assembles a representative per-model transform DAG over
// the projected raw features: dense features get normalization chains,
// sparse features get SigridHash(+FirstX), and derivedCount synthetic
// features are generated through multi-op chains (Bucketize → NGram →
// SigridHash and Cartesian crosses), mirroring §7.2's example DAG.
//
// Derived feature IDs are allocated from derivedBase upward; derivedBase
// must exceed every raw feature ID.
func StandardGraph(dense, sparse []schema.FeatureID, derivedCount int, derivedBase schema.FeatureID) *Graph {
	return StandardGraphTruncated(dense, sparse, derivedCount, derivedBase, 50)
}

// StandardGraphTruncated is StandardGraph with an explicit FirstX list
// cap: models differ heavily in how hard they truncate (RM3's tiny
// tensors come from aggressive truncation).
func StandardGraphTruncated(dense, sparse []schema.FeatureID, derivedCount int, derivedBase schema.FeatureID, firstX int) *Graph {
	g := NewGraph()
	next := derivedBase

	alloc := func() schema.FeatureID {
		id := next
		next++
		return id
	}

	for _, id := range dense {
		switch id % 4 {
		case 0:
			g.Add(&Logit{In: id, Out: alloc()})
		case 1:
			g.Add(&BoxCox{In: id, Out: alloc(), Lambda: 0.5})
		case 2:
			g.Add(&Clamp{In: id, Out: alloc(), Lo: -3, Hi: 3})
		default:
			g.Add(&Onehot{In: id, Out: alloc(), Buckets: 16, Min: -3, Max: 3})
		}
	}
	hashed := make([]schema.FeatureID, 0, len(sparse))
	for _, id := range sparse {
		trunc := alloc()
		g.Add(&FirstX{In: id, Out: trunc, X: firstX})
		h := alloc()
		g.Add(&SigridHash{In: trunc, Out: h, Salt: int64(id), MaxValue: 1 << 20})
		hashed = append(hashed, h)
	}

	for i := 0; i < derivedCount; i++ {
		switch {
		case len(hashed) >= 2 && i%3 == 0:
			a := hashed[i%len(hashed)]
			b := hashed[(i+1)%len(hashed)]
			cross := alloc()
			g.Add(&Cartesian{A: a, B: b, Out: cross, MaxOutput: 8})
			g.Add(&SigridHash{In: cross, Out: alloc(), Salt: int64(i), MaxValue: 1 << 20})
		case len(hashed) >= 1 && i%3 == 1:
			gram := alloc()
			g.Add(&NGram{In: hashed[i%len(hashed)], Out: gram, N: 2})
			g.Add(&PositiveModulus{In: gram, Out: alloc(), M: 1 << 20})
		case len(dense) >= 1:
			bkt := alloc()
			g.Add(&Bucketize{In: dense[i%len(dense)], Out: bkt, Borders: []float32{-2, -1, 0, 1, 2}})
			g.Add(&MapId{In: bkt, Out: alloc(), Mapping: map[int64]int64{0: 100, 5: 105}, Default: 50})
		case len(hashed) >= 1:
			g.Add(&ComputeScore{In: hashed[i%len(hashed)], Out: alloc(), ScaleA: 1, BiasB: 0})
		}
	}
	return g
}
