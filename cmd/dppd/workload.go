package main

import (
	"fmt"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// BuildWorkload regenerates the deterministic demo dataset and session
// spec for a profile. Every dppd process with the same model and seed
// builds byte-identical data, standing in for shared Tectonic access.
func BuildWorkload(p datagen.Profile, seed int64) (*warehouse.Warehouse, dpp.SessionSpec, error) {
	spec := p.Scale(0.01, 2, 512)
	gen := datagen.NewGenerator(spec, seed)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		return nil, dpp.SessionSpec{}, err
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable(p.Name, spec.BuildSchema(), dwrf.WriterOptions{
		Flatten:       true,
		RowsPerStripe: 128,
		StreamOrder:   gen.TrafficOrder(8),
	})
	if err != nil {
		return nil, dpp.SessionSpec{}, err
	}
	for part := 0; part < spec.Partitions; part++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("part-%02d", part))
		if err != nil {
			return nil, dpp.SessionSpec{}, err
		}
		for i := 0; i < spec.RowsPerPart; i++ {
			if err := pw.WriteRow(gen.Sample()); err != nil {
				return nil, dpp.SessionSpec{}, err
			}
		}
		if err := pw.Close(); err != nil {
			return nil, dpp.SessionSpec{}, err
		}
	}

	proj := gen.Projection(seed)
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		if col, ok := tbl.Schema.Column(id); ok {
			if col.Kind == schema.Dense {
				dense = append(dense, id)
			} else {
				sparse = append(sparse, id)
			}
		}
	}
	graph := transforms.StandardGraph(dense, sparse, 4, 1<<20)
	denseOut, sparseOut, err := graph.TensorOutputs()
	if err != nil {
		return nil, dpp.SessionSpec{}, err
	}
	session := dpp.SessionSpec{
		Table:     p.Name,
		Features:  proj.IDs(),
		Ops:       graph.Ops(),
		DenseOut:  denseOut,
		SparseOut: sparseOut,
		BatchSize: 64,
		Read:      dwrf.ReadOptions{CoalesceBytes: 128 << 10, Flatmap: true},
	}
	return wh, session, nil
}
