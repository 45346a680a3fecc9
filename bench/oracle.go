package main

import (
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// oracle is the correctness ledger every workload shares. Rows offered
// to the system are the operations attempted; a row that is lost,
// duplicated, shed, poisoned, or part of a digest that does not match
// the expected one is an operation failed.
type oracle struct {
	attempted int64
	failed    int64
	problems  []string
}

func (o *oracle) failf(rows int64, format string, args ...any) {
	if rows < 1 {
		rows = 1
	}
	o.failed += rows
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkDigest offers want.Rows rows and compares what one consumer got
// against them. A wrong row count fails the rows missing or in excess
// (exactly-once); a right count with different content fails them all,
// because an order-independent digest cannot say which rows differ.
func (o *oracle) checkDigest(what string, got, want *tensor.ContentSum) {
	o.attempted += want.Rows
	switch {
	case got.Rows != want.Rows:
		diff := got.Rows - want.Rows
		if diff < 0 {
			diff = -diff
		}
		o.failf(diff, "%s: %d rows, want %d (exactly-once violated)", what, got.Rows, want.Rows)
	case !got.Equal(want):
		o.failf(want.Rows, "%s: content digest differs from the generator replay", what)
	}
}

// checkCount compares one of the program's own counters with the number
// the generator says it must show.
func (o *oracle) checkCount(what string, got, want int64) {
	if got != want {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		o.failf(diff, "%s = %d, want %d", what, got, want)
	}
}

func (o *oracle) correct() bool { return o.failed == 0 && o.attempted > 0 }

// servedSamples replays what a ServingSimulator seeded with seed logs
// for its first n requests, after the ETL join: the generator's sample
// with the label the joiner derives from the outcome event (engaged iff
// the generated label was positive). It never touches the program under
// test beyond the generator itself.
func servedSamples(spec datagen.DatasetSpec, seed int64, n int) []*schema.Sample {
	gen := datagen.NewGenerator(spec, seed)
	out := make([]*schema.Sample, n)
	for i := range out {
		s := gen.Sample()
		if s.Label > 0 {
			s.Label = 1
		} else {
			s.Label = 0
		}
		out[i] = s
	}
	return out
}

// storedDigest is the digest of samples as a table must hold them: every
// stored feature, untransformed.
func storedDigest(samples []*schema.Sample) *tensor.ContentSum {
	sum := tensor.NewContentSum()
	for _, s := range samples {
		sum.Rows++
		sum.AddLabel(s.Label)
		for id, v := range s.DenseFeatures {
			sum.AddDense(id, v)
		}
		for id, vals := range s.SparseFeatures {
			sum.AddSparse(id, vals)
		}
	}
	return sum
}

// addDelivered folds into sum what a session with spec must deliver for
// samples: the rows go straight from memory through the reference
// interpreter and tensor materialisation — no storage, no decoder, no
// compiled plan, no cache and no wire, which are what the workloads
// exercise.
func addDelivered(sum *tensor.ContentSum, samples []*schema.Sample, spec dpp.SessionSpec) error {
	graph, err := spec.BuildGraph()
	if err != nil {
		return fmt.Errorf("oracle: build graph: %w", err)
	}
	batch := dwrf.BatchFromSamples(samples)
	if _, err := graph.Run(batch); err != nil {
		return fmt.Errorf("oracle: interpret: %w", err)
	}
	t, err := tensor.Materialize(batch, spec.DenseOut, spec.SparseOut)
	if err != nil {
		return fmt.Errorf("oracle: materialize: %w", err)
	}
	sum.AddBatch(t)
	return nil
}

// servedDelivered is the digest every tenant tailing the table must
// end up with after the first n requests of a simulator seeded with seed.
func servedDelivered(seed int64, n int, spec dpp.SessionSpec) (*tensor.ContentSum, error) {
	served := servedSamples(dataSpec(), seed, n)
	want := tensor.NewContentSum()
	for start := 0; start < n; start += 1024 {
		if err := addDelivered(want, served[start:min(start+1024, n)], spec); err != nil {
			return nil, err
		}
	}
	return want, nil
}
