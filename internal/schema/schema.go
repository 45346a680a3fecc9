// Package schema defines the data model of the warehouse: samples with
// dense, sparse, and score-list feature maps (§3.1.2 of the paper), table
// schemas, and the feature registry that tracks each feature's lifecycle
// state (Table 2).
package schema

import (
	"fmt"
	"slices"
)

// FeatureID identifies a feature within a table. Production tables hold
// tens of thousands of feature IDs.
type FeatureID int32

// FeatureKind distinguishes the three column families the warehouse
// stores.
type FeatureKind int

const (
	// Dense features map a feature ID to one continuous value (e.g. the
	// current time).
	Dense FeatureKind = iota
	// Sparse features map a feature ID to a variable-length list of
	// categorical values (e.g. page IDs).
	Sparse
	// ScoreList features additionally associate each categorical value
	// with a float weight (e.g. page creation time).
	ScoreList
)

// String implements fmt.Stringer.
func (k FeatureKind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	case ScoreList:
		return "scorelist"
	default:
		return fmt.Sprintf("FeatureKind(%d)", int(k))
	}
}

// ScoredValue is one categorical value with its weight, the element type
// of a score-list feature.
type ScoredValue struct {
	Value int64
	Score float32
}

// Sample is one structured training row: feature maps plus a label.
// Features occupy >99% of stored bytes in production (§3.1.2).
type Sample struct {
	// DenseFeatures maps feature ID -> continuous value.
	DenseFeatures map[FeatureID]float32
	// SparseFeatures maps feature ID -> categorical ID list.
	SparseFeatures map[FeatureID][]int64
	// ScoreListFeatures maps feature ID -> weighted categorical values.
	ScoreListFeatures map[FeatureID][]ScoredValue
	// Label is the supervised target (e.g. click / no-click).
	Label float32
}

// NewSample returns an empty sample with allocated maps.
func NewSample() *Sample {
	return &Sample{
		DenseFeatures:     make(map[FeatureID]float32),
		SparseFeatures:    make(map[FeatureID][]int64),
		ScoreListFeatures: make(map[FeatureID][]ScoredValue),
	}
}

// FeatureCount reports the number of features present in this sample
// across all kinds.
func (s *Sample) FeatureCount() int {
	return len(s.DenseFeatures) + len(s.SparseFeatures) + len(s.ScoreListFeatures)
}

// Column describes one feature column in a table schema.
type Column struct {
	ID   FeatureID
	Kind FeatureKind
	Name string
}

// TableSchema is the ordered set of feature columns a table stores.
type TableSchema struct {
	Name    string
	Columns []Column
}

// NewTableSchema returns a schema with the given name and no columns.
func NewTableSchema(name string) *TableSchema {
	return &TableSchema{Name: name}
}

// AddColumn appends a column. It returns an error if the feature ID is
// already present.
func (t *TableSchema) AddColumn(c Column) error {
	for _, existing := range t.Columns {
		if existing.ID == c.ID {
			return fmt.Errorf("schema: duplicate feature id %d in table %s", c.ID, t.Name)
		}
	}
	t.Columns = append(t.Columns, c)
	return nil
}

// Column returns the column for id, if present.
func (t *TableSchema) Column(id FeatureID) (Column, bool) {
	for _, c := range t.Columns {
		if c.ID == id {
			return c, true
		}
	}
	return Column{}, false
}

// IDsOfKind returns the feature IDs of the given kind in schema order.
func (t *TableSchema) IDsOfKind(kind FeatureKind) []FeatureID {
	var ids []FeatureID
	for _, c := range t.Columns {
		if c.Kind == kind {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// Projection is the set of features a training job reads (its column
// filter, §5.1). The zero value selects nothing.
type Projection struct {
	ids map[FeatureID]bool
	// sorted holds the same IDs in ascending order, so IDs costs nothing
	// per call. Add replaces it rather than writing into it, so a slice
	// IDs returned earlier never changes.
	sorted []FeatureID
}

// NewProjection returns a projection selecting the given feature IDs.
func NewProjection(ids ...FeatureID) *Projection {
	p := &Projection{ids: make(map[FeatureID]bool, len(ids))}
	for _, id := range ids {
		p.ids[id] = true
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	p.sorted = slices.Clip(slices.Compact(sorted))
	return p
}

// Add includes id in the projection.
func (p *Projection) Add(id FeatureID) {
	if p.ids[id] {
		return
	}
	p.ids[id] = true
	i, _ := slices.BinarySearch(p.sorted, id)
	p.sorted = slices.Insert(slices.Clip(p.sorted), i, id)
}

// Contains reports whether id is selected.
func (p *Projection) Contains(id FeatureID) bool { return p.ids[id] }

// Len reports the number of selected features.
func (p *Projection) Len() int { return len(p.ids) }

// IDs returns the selected feature IDs in ascending order. The slice is
// the projection's own, shared by every caller: read it, never write
// it. Its capacity ends at its length, so an append copies it, and a
// later Add leaves it as it was.
func (p *Projection) IDs() []FeatureID {
	return slices.Clip(p.sorted)
}

// LifecycleState tracks a feature through the release process (§4.3).
type LifecycleState int

const (
	// Beta features are proposed but not actively logged; they may be
	// back-filled or injected per exploratory job.
	Beta LifecycleState = iota
	// Experimental features are logged and used by combo or RC jobs.
	Experimental
	// Active features belong to the current production model version.
	Active
	// Deprecated features are still written but pending review/reaping.
	Deprecated
	// Reaped features have been removed to protect user privacy.
	Reaped
)

// String implements fmt.Stringer.
func (s LifecycleState) String() string {
	switch s {
	case Beta:
		return "beta"
	case Experimental:
		return "experimental"
	case Active:
		return "active"
	case Deprecated:
		return "deprecated"
	case Reaped:
		return "reaped"
	default:
		return fmt.Sprintf("LifecycleState(%d)", int(s))
	}
}

// Logged reports whether features in this state are actively written to
// the dataset. Per §4.3, experimental, active, and deprecated features are
// logged; beta and reaped features are not.
func (s LifecycleState) Logged() bool {
	return s == Experimental || s == Active || s == Deprecated
}

// FeatureInfo is the registry's record for one feature.
type FeatureInfo struct {
	Column
	State LifecycleState
	// CreatedDay is the simulation day the feature was proposed.
	CreatedDay int
}

// Registry tracks every feature proposed for a table and its lifecycle
// state, supporting the Table 2 churn analysis.
type Registry struct {
	features map[FeatureID]*FeatureInfo
	nextID   FeatureID
}

// NewRegistry returns an empty feature registry.
func NewRegistry() *Registry {
	return &Registry{features: make(map[FeatureID]*FeatureInfo), nextID: 1}
}

// Propose registers a new beta feature and returns its assigned ID.
func (r *Registry) Propose(kind FeatureKind, name string, day int) FeatureID {
	id := r.nextID
	r.nextID++
	r.features[id] = &FeatureInfo{
		Column:     Column{ID: id, Kind: kind, Name: name},
		State:      Beta,
		CreatedDay: day,
	}
	return id
}

// Transition moves a feature to a new lifecycle state. Transitions must
// move forward in the lifecycle (beta → experimental → active →
// deprecated → reaped); any skipping forward is allowed, moving backwards
// is not.
func (r *Registry) Transition(id FeatureID, to LifecycleState) error {
	f, ok := r.features[id]
	if !ok {
		return fmt.Errorf("schema: unknown feature %d", id)
	}
	if to < f.State {
		return fmt.Errorf("schema: feature %d cannot move backwards from %v to %v", id, f.State, to)
	}
	f.State = to
	return nil
}

// Get returns the registry record for id.
func (r *Registry) Get(id FeatureID) (FeatureInfo, bool) {
	f, ok := r.features[id]
	if !ok {
		return FeatureInfo{}, false
	}
	return *f, true
}

// Len reports the number of registered features.
func (r *Registry) Len() int { return len(r.features) }

// CountByState tallies features created within [fromDay, toDay] by their
// current state, reproducing Table 2's view ("features created within a 6
// month window and their status 6 months later").
func (r *Registry) CountByState(fromDay, toDay int) map[LifecycleState]int {
	out := make(map[LifecycleState]int)
	for _, f := range r.features {
		if f.CreatedDay >= fromDay && f.CreatedDay <= toDay {
			out[f.State]++
		}
	}
	return out
}
