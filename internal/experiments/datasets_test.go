package experiments

import (
	"reflect"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/transforms"
)

// handDerivedOutputs is how session builders picked a graph's tensor
// outputs before the plan named them: every op output no op reads,
// filed by op type.
func handDerivedOutputs(ops []transforms.Op) (dense, sparse []schema.FeatureID) {
	read := map[schema.FeatureID]bool{}
	for _, op := range ops {
		for _, in := range op.Inputs() {
			read[in] = true
		}
	}
	for _, op := range ops {
		if read[op.Output()] {
			continue
		}
		switch op.(type) {
		case *transforms.Logit, *transforms.BoxCox, *transforms.Clamp, *transforms.GetLocalHour:
			dense = append(dense, op.Output())
		case *transforms.ComputeScore, *transforms.Sampling:
		default:
			sparse = append(sparse, op.Output())
		}
	}
	return dense, sparse
}

// TestBuildSessionTensorOutputsUnchanged pins that the plan-derived
// DenseOut and SparseOut of every model's session are the lists the
// hand-written type switch produced, in the same order.
func TestBuildSessionTensorOutputsUnchanged(t *testing.T) {
	for _, p := range []datagen.Profile{datagen.RM1, datagen.RM2, datagen.RM3} {
		o := defaultBuild()
		o.Partitions = 0 // the schema and projection are all BuildSession reads
		d, err := BuildDataset(p, o)
		if err != nil {
			t.Fatal(err)
		}
		spec := d.BuildSession(1, dwrf.ReadOptions{})
		dense, sparse := handDerivedOutputs(spec.Ops)
		if len(dense) == 0 || len(sparse) == 0 {
			t.Fatalf("%s: hand-derived outputs are empty (dense %d, sparse %d)", p.Name, len(dense), len(sparse))
		}
		if !reflect.DeepEqual(spec.DenseOut, dense) || !reflect.DeepEqual(spec.SparseOut, sparse) {
			t.Fatalf("%s: DenseOut %v SparseOut %v, want %v and %v", p.Name, spec.DenseOut, spec.SparseOut, dense, sparse)
		}
	}
}
