package experiments

import (
	"fmt"
	"math"
	"sync"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// tensorBatch abbreviates the materialized batch type in sinks.
type tensorBatch = tensor.Batch

// BuiltDataset bundles everything an experiment needs to run against one
// model's scaled synthetic dataset.
type BuiltDataset struct {
	Profile datagen.Profile
	Spec    datagen.DatasetSpec
	Gen     *datagen.Generator
	Cluster *tectonic.Cluster
	WH      *warehouse.Warehouse
	Table   *warehouse.Table
}

// buildOpts configures dataset construction.
type buildOpts struct {
	Scale       float64
	Partitions  int
	RowsPerPart int
	Writer      dwrf.WriterOptions
	Seed        int64
	// Reorder writes streams in popularity order (FR).
	Reorder bool
}

// buildRowScale multiplies the row count of every dataset build.
// Reduced-scale test runs (-short) shrink it so the full experiment
// registry still executes, just over less data.
var (
	buildScaleMu  sync.Mutex
	buildRowScale = 1.0
)

func defaultBuild() buildOpts {
	// Scale 0 defers to each profile's SimScale, which keeps even RM3's
	// sparse-feature count (188 at paper scale) large enough for
	// per-kind selection granularity. Feature reordering is on, matching
	// the production deployment (§7.5).
	// PlainEncodings pins the paper-reproduction experiments to the v1
	// wire layout the paper's fleet ran: §6.3's resource balance (membw
	// vs NIC) was measured before any dictionary/RLE/delta compression,
	// and the lighter v2 streams would shift it. The dedicated
	// "encodings" experiment contrasts the two layouts explicitly.
	return buildOpts{
		Partitions:  2,
		RowsPerPart: 1024,
		Writer:      dwrf.WriterOptions{Flatten: true, RowsPerStripe: 256, PlainEncodings: true},
		Seed:        1,
		Reorder:     true,
	}
}

// BuildDataset generates and stores a scaled dataset for the profile. A
// zero Scale uses the profile's SimScale.
func BuildDataset(p datagen.Profile, o buildOpts) (*BuiltDataset, error) {
	if o.Scale == 0 {
		o.Scale = p.SimScale
	}
	buildScaleMu.Lock()
	rowScale := buildRowScale
	buildScaleMu.Unlock()
	if rowScale != 1 {
		rows := int(float64(o.RowsPerPart) * rowScale)
		if rows < 64 {
			rows = 64
		}
		o.RowsPerPart = rows
	}
	spec := p.Scale(o.Scale, o.Partitions, o.RowsPerPart)
	gen := datagen.NewGenerator(spec, o.Seed)
	if o.Reorder {
		// Production feature reordering ranks by recent job traffic
		// (§7.5), not static popularity.
		o.Writer.StreamOrder = gen.TrafficOrder(16)
	}
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 6, Replication: 3, ChunkSize: 4 << 20})
	if err != nil {
		return nil, err
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable(p.Name, spec.BuildSchema(), o.Writer)
	if err != nil {
		return nil, err
	}
	for part := 0; part < o.Partitions; part++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("2026-06-%02d", part+1))
		if err != nil {
			return nil, err
		}
		for i := 0; i < o.RowsPerPart; i++ {
			if err := pw.WriteRow(gen.Sample()); err != nil {
				return nil, err
			}
		}
		if err := pw.Close(); err != nil {
			return nil, err
		}
	}
	return &BuiltDataset{Profile: p, Spec: spec, Gen: gen, Cluster: cluster, WH: wh, Table: tbl}, nil
}

// datasetCache memoizes the default-build datasets per profile so that
// independent experiments don't regenerate them.
var (
	datasetMu    sync.Mutex
	datasetCache = map[string]*BuiltDataset{}
)

// defaultDataset returns the cached default-build dataset for a profile.
func defaultDataset(p datagen.Profile) (*BuiltDataset, error) {
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if d, ok := datasetCache[p.Name]; ok {
		return d, nil
	}
	d, err := BuildDataset(p, defaultBuild())
	if err != nil {
		return nil, err
	}
	datasetCache[p.Name] = d
	return d, nil
}

// BuildSession assembles a DPP session over the dataset mirroring the
// profile's model (Table 4): the projection selects the used raw
// features, dense features get normalization chains, sparse features get
// hashing, and derived features are generated at the profile's scaled
// count.
func (d *BuiltDataset) BuildSession(jobSeed int64, read dwrf.ReadOptions) dpp.SessionSpec {
	proj := d.Gen.Projection(jobSeed)
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		col, ok := d.Table.Schema.Column(id)
		if !ok {
			continue
		}
		switch col.Kind {
		case schema.Dense:
			dense = append(dense, id)
		case schema.Sparse:
			sparse = append(sparse, id)
		}
	}
	derived := int(math.Max(1, float64(d.Profile.ModelDerived)*float64(len(dense)+len(sparse))/
		float64(d.Profile.ModelDense+d.Profile.ModelSparse)))
	const derivedBase = schema.FeatureID(1 << 20)
	firstX := d.Profile.ListTruncation
	if firstX == 0 {
		firstX = 50
	}
	graph := transforms.StandardGraphTruncated(dense, sparse, derived, derivedBase, firstX)

	// Materialize only terminal outputs (not consumed by downstream
	// ops): intermediates like the pre-hash Cartesian cross exist only
	// inside the worker, so preprocessing shrinks the data (§6.3).
	denseOut, sparseOut, err := graph.TensorOutputs()
	if err != nil {
		// The standard graph's ops are all configured valid.
		panic(err)
	}
	return dpp.SessionSpec{
		Table:     d.Profile.Name,
		Features:  proj.IDs(),
		Ops:       graph.Ops(),
		DenseOut:  denseOut,
		SparseOut: sparseOut,
		BatchSize: 128,
		Read:      read,
	}
}

// Costs completes a cost model for the dataset's profile: transformation
// intensity scales with the model (§6.3: RM1's transforms cost the most
// CPU), normalized to RM2's baseline; the per-thread resident set
// throttles memory-capacity-bound models; and the paper's fleet sends
// tensors over Thrift, so TX bytes pay the same tax as RX bytes, not the
// framed stream's lower default.
func (d *BuiltDataset) Costs(costs CostParams) CostParams {
	costs.XformCycleScale = d.Profile.XformCyclesPerValue / 260
	costs.ThreadResidentGB = d.Profile.WorkerResidentGBPerThread
	costs.TxTaxCyclesPerByte = 1.7
	return costs
}

// runWorkerSession drives one worker synchronously through the whole
// session and returns what it measured, priced by costs completed for
// the dataset's profile. The one worker stands for a fleet whose members
// each lease a split cold, so the warehouse keeps no reader resident
// while it runs: the worker opens the file (a footer read) ahead of
// every split's stripe read, which is the I/O pattern the storage-side
// figures (Table 12) are measured under.
func runWorkerSession(d *BuiltDataset, spec dpp.SessionSpec, costs CostParams) (Priced, error) {
	d.WH.SetReaderCacheLimit(-1)
	defer d.WH.SetReaderCacheLimit(0)
	d.Cluster.ResetIOAccounting()
	m, err := dpp.NewMaster(d.WH, spec)
	if err != nil {
		return Priced{}, err
	}
	w, err := dpp.NewWorker("bench-worker", m, d.WH)
	if err != nil {
		return Priced{}, err
	}
	w.Sink = (*tensorBatch).Release
	for {
		ok, err := w.ProcessOneSplit()
		if err != nil {
			return Priced{}, err
		}
		if !ok {
			break
		}
	}
	return Price(w.Report(), d.Costs(costs)), nil
}
