package dwrf

import "dsi/internal/schema"

// BatchFromSamples converts row-map samples into the columnar Batch
// representation. This is the conversion step the paper's unoptimized
// pipeline performs between the row-oriented extraction format and the
// columnar tensor format — the copy the in-memory flatmap optimization
// removes (§7.5). A regular-map stripe read pays it (Reader.ReadStripe).
func BatchFromSamples(rows []*schema.Sample) *Batch { return batchFromSamples(rows, nil) }

// batchFromSamples is BatchFromSamples keeping only the features proj
// selects (every feature when proj is nil).
func batchFromSamples(rows []*schema.Sample, proj *schema.Projection) *Batch {
	b := newBatch(len(rows))
	b.Labels = make([]float32, len(rows))

	present := make(map[schema.FeatureID]schema.FeatureKind)
	for _, r := range rows {
		for id := range r.DenseFeatures {
			present[id] = schema.Dense
		}
		for id := range r.SparseFeatures {
			present[id] = schema.Sparse
		}
		for id := range r.ScoreListFeatures {
			present[id] = schema.ScoreList
		}
	}
	for id, kind := range present {
		if proj != nil && !proj.Contains(id) {
			continue
		}
		switch kind {
		case schema.Dense:
			col := &DenseColumn{Present: make([]bool, len(rows)), Values: make([]float32, len(rows))}
			for i, r := range rows {
				if v, ok := r.DenseFeatures[id]; ok {
					col.Present[i] = true
					col.Values[i] = v
				}
			}
			b.Dense[id] = col
		case schema.Sparse:
			col := &SparseColumn{Offsets: make([]int32, len(rows)+1)}
			for i, r := range rows {
				col.Offsets[i] = int32(len(col.Values))
				col.Values = append(col.Values, r.SparseFeatures[id]...)
			}
			col.Offsets[len(rows)] = int32(len(col.Values))
			b.Sparse[id] = col
		case schema.ScoreList:
			col := &ScoreListColumn{Offsets: make([]int32, len(rows)+1)}
			for i, r := range rows {
				col.Offsets[i] = int32(len(col.Values))
				col.Values = append(col.Values, r.ScoreListFeatures[id]...)
			}
			col.Offsets[len(rows)] = int32(len(col.Values))
			b.ScoreList[id] = col
		}
	}
	for i, r := range rows {
		b.Labels[i] = r.Label
	}
	return b
}

// MaterializeDicts replaces every dictionary-indexed sparse column with
// a freshly allocated plain column holding the decoded values, through
// SetSparse: the old column is released, never changed, so the call is
// legal on any batch whatever else holds its columns. Consumers that
// interpret column values directly without dictionary awareness (the
// interpreted transform path) call it once up front.
func (b *Batch) MaterializeDicts() {
	for id, c := range b.Sparse {
		if !c.IsDict() {
			continue
		}
		nc := &SparseColumn{
			Offsets: append([]int32(nil), c.Offsets...),
			Values:  make([]int64, len(c.Values)),
		}
		for i, idx := range c.Values {
			nc.Values[i] = c.Dict[idx]
		}
		b.SetSparse(id, nc)
	}
}
