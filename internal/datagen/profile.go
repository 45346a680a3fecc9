// Package datagen defines the three representative recommendation-model
// workloads (RM1, RM2, RM3) the paper characterizes, and generates
// synthetic datasets and serving-time logs whose statistics match the
// paper's Tables 3-5: feature counts, coverage, sparse-feature lengths,
// and Zipf-skewed feature popularity.
//
// Production data is unavailable (and private), so every experiment runs
// on data from this package, scaled down by a configurable factor while
// preserving the ratios the paper's findings depend on.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dsi/internal/schema"
)

// Profile captures one recommendation model's paper-reported
// characteristics. Fields labelled "paper" are the targets the
// experiments' paper column compares against (their reference run is
// internal/experiments/testdata/golden/); the generator reproduces their
// shape at simulation scale.
type Profile struct {
	Name string

	// Dataset characteristics (Table 5, paper scale).
	StoredFloatFeats  int     // float (dense) features logged in the table
	StoredSparseFeats int     // sparse features logged in the table
	AvgCoverage       float64 // fraction of samples logging a feature
	AvgSparseLen      float64 // mean categorical list length
	PctFeatsUsed      float64 // paper: % of stored features a job reads
	PctBytesUsed      float64 // paper: % of stored bytes a job reads

	// Model feature requirements (Table 4).
	ModelDense   int
	ModelSparse  int
	ModelDerived int

	// Partition sizes in PB (Table 3).
	AllPartitionsPB  float64
	EachPartitionPB  float64
	UsedPartitionsPB float64

	// Per-8-GPU-node tensor ingestion demand in GB/s (Table 8).
	TrainerGBps float64

	// DPP worker saturation profile (Table 9, per C-v1 worker).
	WorkerKQPS        float64
	StorageRxGBps     float64
	XformRxGBps       float64
	XformTxGBps       float64
	WorkersPerTrainer float64

	// HotShareFor80PctTraffic is Figure 7's paper reading: the fraction
	// of stored bytes absorbing 80% of storage traffic.
	HotShareFor80PctTraffic float64

	// JobFeatureJitter controls how much the used-feature set varies
	// between training jobs: 0 means every job reads the identical
	// feature set (RM3-like), larger values shuffle the popularity
	// ranking per job (RM1/RM2-like).
	JobFeatureJitter float64

	// XformCyclesPerValue scales transformation CPU cost; RM1's
	// transforms are the most expensive (§6.3).
	XformCyclesPerValue float64

	// SimScale is the default feature-count scale used by the
	// experiment harness. RM3 stores far fewer features than RM1/RM2,
	// so it needs a larger scale to preserve selection granularity.
	SimScale float64

	// LenScale multiplies generated sparse-list lengths. RM2's dataset
	// is 2.2x RM1's (Table 3) at near-identical feature counts and its
	// workers ingest ~2.2x the bytes per sample (Table 9) — its rows
	// simply carry more bytes, which this factor reproduces.
	LenScale float64

	// ListTruncation is the FirstX cap the model's transform graph
	// applies; RM3 truncates aggressively, yielding tiny tensors
	// (Table 9: 0.22 GB/s TX at 36.9 kQPS).
	ListTruncation int

	// WorkerResidentGBPerThread is the per-thread resident memory of a
	// preprocessing thread. RM3 is bound on memory capacity, forcing a
	// limited worker thread pool (§6.3, Fig 9).
	WorkerResidentGBPerThread float64
}

// The three representative models of the paper. All numeric fields are
// the published values.
var (
	RM1 = Profile{
		Name:              "RM1",
		StoredFloatFeats:  12115,
		StoredSparseFeats: 1763,
		AvgCoverage:       0.45,
		AvgSparseLen:      25.97,
		PctFeatsUsed:      0.11,
		PctBytesUsed:      0.37,
		ModelDense:        1221, ModelSparse: 298, ModelDerived: 304,
		AllPartitionsPB: 13.45, EachPartitionPB: 0.15, UsedPartitionsPB: 11.95,
		TrainerGBps: 16.50,
		WorkerKQPS:  11.623, StorageRxGBps: 0.8, XformRxGBps: 1.37, XformTxGBps: 0.68,
		WorkersPerTrainer:         24.16,
		HotShareFor80PctTraffic:   0.39,
		JobFeatureJitter:          0.35,
		XformCyclesPerValue:       420,
		SimScale:                  0.05,
		LenScale:                  1.0,
		ListTruncation:            50,
		WorkerResidentGBPerThread: 1.5,
	}

	RM2 = Profile{
		Name:              "RM2",
		StoredFloatFeats:  12596,
		StoredSparseFeats: 1817,
		AvgCoverage:       0.41,
		AvgSparseLen:      25.57,
		PctFeatsUsed:      0.10,
		PctBytesUsed:      0.34,
		ModelDense:        1113, ModelSparse: 306, ModelDerived: 317,
		AllPartitionsPB: 29.18, EachPartitionPB: 0.32, UsedPartitionsPB: 25.94,
		TrainerGBps: 4.69,
		WorkerKQPS:  7.995, StorageRxGBps: 1.2, XformRxGBps: 0.96, XformTxGBps: 0.50,
		WorkersPerTrainer:         9.44,
		HotShareFor80PctTraffic:   0.37,
		JobFeatureJitter:          0.30,
		XformCyclesPerValue:       260,
		SimScale:                  0.05,
		LenScale:                  1.8,
		ListTruncation:            50,
		WorkerResidentGBPerThread: 1.5,
	}

	RM3 = Profile{
		Name:              "RM3",
		StoredFloatFeats:  5707,
		StoredSparseFeats: 188,
		AvgCoverage:       0.29,
		AvgSparseLen:      19.64,
		PctFeatsUsed:      0.09,
		PctBytesUsed:      0.21,
		ModelDense:        504, ModelSparse: 42, ModelDerived: 1,
		AllPartitionsPB: 2.93, EachPartitionPB: 0.07, UsedPartitionsPB: 1.95,
		TrainerGBps: 12.00,
		WorkerKQPS:  36.921, StorageRxGBps: 0.8, XformRxGBps: 1.01, XformTxGBps: 0.22,
		WorkersPerTrainer:         55.22,
		HotShareFor80PctTraffic:   0.18,
		JobFeatureJitter:          0.02,
		XformCyclesPerValue:       160,
		SimScale:                  0.10,
		LenScale:                  1.0,
		ListTruncation:            8,
		WorkerResidentGBPerThread: 24,
	}
)

// Profiles returns the three RMs in paper order.
func Profiles() []Profile { return []Profile{RM1, RM2, RM3} }

// ProfileByName looks a profile up by name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("datagen: unknown profile %q", name)
}

// DatasetSpec is a profile scaled down to simulation size.
type DatasetSpec struct {
	Profile      Profile
	DenseFeats   int
	SparseFeats  int
	Partitions   int
	RowsPerPart  int
	RowsPerStipe int
	// SparseCardinality bounds the categorical ID space the Zipf draws
	// from; 0 keeps the default 1<<22. Small values produce
	// dictionary-friendly low-cardinality columns.
	SparseCardinality uint64
	// AscendingIDs emits each sparse row's IDs as a strictly ascending
	// sequence (cumulative Zipf gaps), the shape delta encoding targets.
	AscendingIDs bool
}

// Scale derives a simulation-sized dataset spec. scale shrinks the
// feature counts; partitions and rowsPerPart set the row dimension. The
// float:sparse feature ratio and coverage/length statistics are
// preserved.
func (p Profile) Scale(scale float64, partitions, rowsPerPart int) DatasetSpec {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("datagen: scale %v out of (0,1]", scale))
	}
	d := int(math.Max(1, math.Round(float64(p.StoredFloatFeats)*scale)))
	s := int(math.Max(1, math.Round(float64(p.StoredSparseFeats)*scale)))
	return DatasetSpec{
		Profile:      p,
		DenseFeats:   d,
		SparseFeats:  s,
		Partitions:   partitions,
		RowsPerPart:  rowsPerPart,
		RowsPerStipe: 256,
	}
}

// BuildSchema constructs the table schema for the spec: dense feature IDs
// first, then sparse. Feature popularity rank is a deterministic
// pseudo-random permutation seeded by the profile name, so schema and
// generator agree.
func (d DatasetSpec) BuildSchema() *schema.TableSchema {
	ts := schema.NewTableSchema(d.Profile.Name)
	id := schema.FeatureID(1)
	for i := 0; i < d.DenseFeats; i++ {
		// AddColumn cannot fail: IDs are sequential.
		_ = ts.AddColumn(schema.Column{ID: id, Kind: schema.Dense, Name: fmt.Sprintf("dense_%d", i)})
		id++
	}
	for i := 0; i < d.SparseFeats; i++ {
		_ = ts.AddColumn(schema.Column{ID: id, Kind: schema.Sparse, Name: fmt.Sprintf("sparse_%d", i)})
		id++
	}
	return ts
}

// popularity returns each feature's popularity rank in [0,1), where 0 is
// the most popular. The permutation is deterministic per profile.
func (d DatasetSpec) popularity() map[schema.FeatureID]float64 {
	n := d.DenseFeats + d.SparseFeats
	rng := rand.New(rand.NewSource(seedFromName(d.Profile.Name)))
	perm := rng.Perm(n)
	out := make(map[schema.FeatureID]float64, n)
	for i := 0; i < n; i++ {
		out[schema.FeatureID(i+1)] = float64(perm[i]) / float64(n)
	}
	return out
}

func seedFromName(name string) int64 {
	var s int64 = 1469598103934665603
	for _, c := range name {
		s ^= int64(c)
		s *= 1099511628211
	}
	return s
}

// coverageOf maps a popularity rank to a per-feature coverage such that
// the mean over features equals AvgCoverage while popular features are
// logged more often — the paper observes that read (popular) features
// exhibit larger coverage (§5.1).
func (d DatasetSpec) coverageOf(rank float64) float64 {
	c := d.Profile.AvgCoverage * (1.6 - 1.2*rank)
	return math.Max(0.01, math.Min(1, c))
}

// sparseLenOf maps a popularity rank to a per-feature mean list length;
// popular sparse features carry substantially longer lists (§5.1: read
// features "require more bytes, as these features contribute stronger
// signals").
func (d DatasetSpec) sparseLenOf(rank float64) float64 {
	scale := d.Profile.LenScale
	if scale == 0 {
		scale = 1
	}
	return math.Max(1, d.Profile.AvgSparseLen*scale*(2.2-2.4*rank))
}

// Generator produces samples for a dataset spec.
type Generator struct {
	spec DatasetSpec
	pop  map[schema.FeatureID]float64
	rng  *rand.Rand
	zipf *rand.Zipf

	coverage map[schema.FeatureID]float64
	meanLen  map[schema.FeatureID]float64
}

// NewGenerator returns a deterministic generator for the spec.
func NewGenerator(spec DatasetSpec, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	card := spec.SparseCardinality
	if card == 0 {
		card = 1 << 22
	}
	g := &Generator{
		spec:     spec,
		pop:      spec.popularity(),
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.3, 4, card),
		coverage: make(map[schema.FeatureID]float64),
		meanLen:  make(map[schema.FeatureID]float64),
	}
	for id, rank := range g.pop {
		g.coverage[id] = spec.coverageOf(rank)
		g.meanLen[id] = spec.sparseLenOf(rank)
	}
	return g
}

// Sample generates one training sample.
func (g *Generator) Sample() *schema.Sample {
	s := schema.NewSample()
	if g.rng.Float64() < 0.03 { // ~3% positive labels, CTR-like
		s.Label = 1
	}
	denseEnd := schema.FeatureID(g.spec.DenseFeats)
	for id := schema.FeatureID(1); id <= denseEnd; id++ {
		if g.rng.Float64() < g.coverage[id] {
			// Quantized to a 1/8 grid: production continuous features
			// (counters, rates) are low-entropy and compress well.
			s.DenseFeatures[id] = float32(math.Round(g.rng.NormFloat64()*8)) / 8
		}
	}
	sparseEnd := denseEnd + schema.FeatureID(g.spec.SparseFeats)
	for id := denseEnd + 1; id <= sparseEnd; id++ {
		if g.rng.Float64() < g.coverage[id] {
			mean := g.meanLen[id]
			n := 1 + int(g.rng.ExpFloat64()*(mean-1))
			if n > 512 {
				n = 512
			}
			vals := make([]int64, n)
			if g.spec.AscendingIDs {
				// Strictly ascending IDs from cumulative Zipf gaps.
				cur := int64(0)
				for j := range vals {
					cur += 1 + int64(g.zipf.Uint64())
					vals[j] = cur
				}
			} else {
				for j := range vals {
					// Zipf categorical IDs: heavy reuse of low IDs.
					vals[j] = int64(g.zipf.Uint64())
				}
			}
			s.SparseFeatures[id] = vals
		}
	}
	return s
}

// rankedFeature pairs a feature with a sort score.
type rankedFeature struct {
	id    schema.FeatureID
	score float64
}

func sortRanked(items []rankedFeature) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].score != items[j].score {
			return items[i].score < items[j].score
		}
		return items[i].id < items[j].id
	})
}

// Projection builds the used-feature set for one training job. Jobs
// select dense and sparse features at the paper's model ratios (Table 4
// vs Table 5: ~10% of dense features but ~17-22% of sparse features),
// favouring popular ones; per §5.2 the chosen set varies between jobs by
// JobFeatureJitter.
func (g *Generator) Projection(jobSeed int64) *schema.Projection {
	spec := g.spec
	rng := rand.New(rand.NewSource(jobSeed))

	denseFrac := float64(spec.Profile.ModelDense) / float64(spec.Profile.StoredFloatFeats)
	sparseFrac := float64(spec.Profile.ModelSparse) / float64(spec.Profile.StoredSparseFeats)
	kDense := int(math.Max(1, math.Round(float64(spec.DenseFeats)*denseFrac)))
	kSparse := int(math.Max(1, math.Round(float64(spec.SparseFeats)*sparseFrac)))

	var dense, sparse []rankedFeature
	denseEnd := schema.FeatureID(spec.DenseFeats)
	n := spec.DenseFeats + spec.SparseFeats
	// Iterate IDs in order so the jitter draw per feature is
	// deterministic for a given job seed.
	for id := schema.FeatureID(1); id <= schema.FeatureID(n); id++ {
		score := g.pop[id] + rng.NormFloat64()*spec.Profile.JobFeatureJitter
		if id <= denseEnd {
			dense = append(dense, rankedFeature{id: id, score: score})
		} else {
			sparse = append(sparse, rankedFeature{id: id, score: score})
		}
	}
	sortRanked(dense)
	sortRanked(sparse)
	proj := schema.NewProjection()
	for _, it := range dense[:mini(kDense, len(dense))] {
		proj.Add(it.id)
	}
	for _, it := range sparse[:mini(kSparse, len(sparse))] {
		proj.Add(it.id)
	}
	return proj
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// PopularityRank exposes the fixed per-feature popularity (for tests and
// experiments).
func (g *Generator) PopularityRank(id schema.FeatureID) float64 { return g.pop[id] }

// TrafficOrder ranks features by how often the last nJobs training jobs
// selected them — the signal the paper's feature reordering actually uses
// ("features' popularity in training jobs launched within a recent
// window", §7.5). Ties break by static popularity.
func (g *Generator) TrafficOrder(nJobs int) []schema.FeatureID {
	counts := make(map[schema.FeatureID]int)
	for job := 0; job < nJobs; job++ {
		for _, id := range g.Projection(int64(job + 1)).IDs() {
			counts[id]++
		}
	}
	items := make([]rankedFeature, 0, len(g.pop))
	for id, rank := range g.pop {
		items = append(items, rankedFeature{id: id, score: -float64(counts[id]) + rank/1e6})
	}
	sortRanked(items)
	out := make([]schema.FeatureID, len(items))
	for i, it := range items {
		out[i] = it.id
	}
	return out
}
