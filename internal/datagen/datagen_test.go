package datagen

import (
	"math"
	"testing"

	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
)

func TestProfilesMatchPaperConstants(t *testing.T) {
	// Spot-check against Tables 3-5, 8, 9.
	if RM1.StoredFloatFeats != 12115 || RM1.StoredSparseFeats != 1763 {
		t.Fatalf("RM1 stored features = %d/%d", RM1.StoredFloatFeats, RM1.StoredSparseFeats)
	}
	if RM2.TrainerGBps != 4.69 || RM3.TrainerGBps != 12.00 {
		t.Fatal("Table 8 trainer throughput mismatch")
	}
	if RM3.WorkersPerTrainer != 55.22 {
		t.Fatalf("RM3 workers/trainer = %v", RM3.WorkersPerTrainer)
	}
	if len(Profiles()) != 3 {
		t.Fatal("expected 3 profiles")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("RM2")
	if err != nil || p.Name != "RM2" {
		t.Fatalf("ProfileByName(RM2) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("RM9"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestScalePreservesRatio(t *testing.T) {
	spec := RM1.Scale(0.01, 4, 100)
	ratioPaper := float64(RM1.StoredFloatFeats) / float64(RM1.StoredSparseFeats)
	ratioScaled := float64(spec.DenseFeats) / float64(spec.SparseFeats)
	if math.Abs(ratioPaper-ratioScaled)/ratioPaper > 0.1 {
		t.Fatalf("feature ratio drifted: paper %.2f scaled %.2f", ratioPaper, ratioScaled)
	}
	if spec.Partitions != 4 || spec.RowsPerPart != 100 {
		t.Fatalf("spec rows = %+v", spec)
	}
}

func TestScalePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	RM1.Scale(0, 1, 1)
}

func TestBuildSchemaCounts(t *testing.T) {
	spec := RM3.Scale(0.02, 1, 10)
	ts := spec.BuildSchema()
	if len(ts.Columns) != spec.DenseFeats+spec.SparseFeats {
		t.Fatalf("schema columns = %d, want %d", len(ts.Columns), spec.DenseFeats+spec.SparseFeats)
	}
	if got := len(ts.IDsOfKind(schema.Dense)); got != spec.DenseFeats {
		t.Fatalf("dense columns = %d, want %d", got, spec.DenseFeats)
	}
}

func TestGeneratedCoverageMatchesProfile(t *testing.T) {
	spec := RM1.Scale(0.01, 1, 10)
	g := NewGenerator(spec, 42)
	n := 800
	var present, possible int
	for i := 0; i < n; i++ {
		s := g.Sample()
		present += s.FeatureCount()
		possible += spec.DenseFeats + spec.SparseFeats
	}
	got := float64(present) / float64(possible)
	if math.Abs(got-RM1.AvgCoverage) > 0.07 {
		t.Fatalf("observed coverage %.3f, want ≈%.2f", got, RM1.AvgCoverage)
	}
}

func TestGeneratedSparseLengthMatchesProfile(t *testing.T) {
	spec := RM3.Scale(0.05, 1, 10)
	g := NewGenerator(spec, 42)
	var totalLen, count int
	for i := 0; i < 500; i++ {
		s := g.Sample()
		for _, vals := range s.SparseFeatures {
			totalLen += len(vals)
			count++
		}
	}
	got := float64(totalLen) / float64(count)
	// Popular features are both longer and more covered, so the
	// presence-weighted mean runs above the per-feature mean; accept a
	// generous band around the target.
	if got < RM3.AvgSparseLen*0.6 || got > RM3.AvgSparseLen*1.9 {
		t.Fatalf("observed sparse len %.2f, want ≈%.2f", got, RM3.AvgSparseLen)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec := RM2.Scale(0.005, 1, 10)
	a := NewGenerator(spec, 7)
	b := NewGenerator(spec, 7)
	for i := 0; i < 20; i++ {
		sa, sb := a.Sample(), b.Sample()
		if sa.FeatureCount() != sb.FeatureCount() || sa.Label != sb.Label {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

func TestProjectionSizeAndPopularityBias(t *testing.T) {
	spec := RM1.Scale(0.02, 1, 10)
	g := NewGenerator(spec, 1)
	proj := g.Projection(99)
	n := spec.DenseFeats + spec.SparseFeats
	want := int(math.Round(float64(n) * RM1.PctFeatsUsed))
	if proj.Len() != want {
		t.Fatalf("projection size = %d, want %d", proj.Len(), want)
	}
	// Selected features should be more popular (lower rank) on average.
	var selRank, allRank float64
	for _, id := range proj.IDs() {
		selRank += g.PopularityRank(id)
	}
	selRank /= float64(proj.Len())
	for id := schema.FeatureID(1); id <= schema.FeatureID(n); id++ {
		allRank += g.PopularityRank(id)
	}
	allRank /= float64(n)
	if selRank >= allRank {
		t.Fatalf("selected mean rank %.3f not better than population %.3f", selRank, allRank)
	}
}

func TestProjectionJitterControlsOverlap(t *testing.T) {
	overlap := func(p Profile) float64 {
		spec := p.Scale(0.02, 1, 10)
		g := NewGenerator(spec, 1)
		a, b := g.Projection(1), g.Projection(2)
		inter := 0
		for _, id := range a.IDs() {
			if b.Contains(id) {
				inter++
			}
		}
		return float64(inter) / float64(a.Len())
	}
	rm1 := overlap(RM1)
	rm3 := overlap(RM3)
	if rm3 <= rm1 {
		t.Fatalf("RM3 job overlap %.2f should exceed RM1's %.2f (Fig 7)", rm3, rm1)
	}
	if rm3 < 0.75 {
		t.Fatalf("RM3 jobs should read nearly identical features, overlap %.2f", rm3)
	}
}

// With no jobs to count, TrafficOrder ranks streams by static popularity
// alone, most popular first.
func TestStreamOrderSortedByPopularity(t *testing.T) {
	spec := RM1.Scale(0.005, 1, 10)
	g := NewGenerator(spec, 1)
	order := g.TrafficOrder(0)
	if len(order) != spec.DenseFeats+spec.SparseFeats {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.PopularityRank(order[i-1]) > g.PopularityRank(order[i]) {
			t.Fatalf("TrafficOrder(0) not sorted by popularity at %d", i)
		}
	}
}

func TestServingSimulator(t *testing.T) {
	bus := scribe.NewBus(logdevice.NewStore())
	daemon := scribe.NewDaemon("host", bus)
	spec := RM1.Scale(0.003, 1, 10)
	g := NewGenerator(spec, 5)
	sim := NewServingSimulator("rm1", g, daemon)
	sim.EventDropRate = 0.5
	if err := sim.ServeRequests(100); err != nil {
		t.Fatal(err)
	}
	if sim.RequestsServed() != 100 {
		t.Fatalf("RequestsServed = %d", sim.RequestsServed())
	}
	feats, err := bus.Tail(FeatureCategory("rm1"), 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 100 {
		t.Fatalf("feature logs = %d, want 100", len(feats))
	}
	events, err := bus.Tail(EventCategory("rm1"), 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) >= 80 || len(events) <= 20 {
		t.Fatalf("event logs = %d, want ≈50 with 0.5 drop rate", len(events))
	}
	// Decode one of each.
	if _, err := DecodeFeatureLog(feats[0].Payload); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEventLog(events[0].Payload); err != nil {
		t.Fatal(err)
	}
}
