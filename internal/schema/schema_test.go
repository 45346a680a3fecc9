package schema

import (
	"testing"
	"testing/quick"
)

func TestFeatureKindString(t *testing.T) {
	cases := map[FeatureKind]string{
		Dense: "dense", Sparse: "sparse", ScoreList: "scorelist",
		FeatureKind(99): "FeatureKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestSampleFeatureCountAndBytes(t *testing.T) {
	s := NewSample()
	s.DenseFeatures[1] = 0.5
	s.SparseFeatures[2] = []int64{10, 20, 30}
	s.ScoreListFeatures[3] = []ScoredValue{{Value: 1, Score: 0.1}}
	if got := s.FeatureCount(); got != 3 {
		t.Fatalf("FeatureCount = %d, want 3", got)
	}
}

func TestTableSchemaAddAndLookup(t *testing.T) {
	ts := NewTableSchema("rm1")
	if err := ts.AddColumn(Column{ID: 1, Kind: Dense, Name: "f1"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddColumn(Column{ID: 2, Kind: Sparse, Name: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddColumn(Column{ID: 1, Kind: Sparse, Name: "dup"}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	c, ok := ts.Column(2)
	if !ok || c.Name != "f2" {
		t.Fatalf("Column(2) = %+v, %v", c, ok)
	}
	if _, ok := ts.Column(9); ok {
		t.Fatal("Column(9) should be absent")
	}
}

func TestIDsOfKind(t *testing.T) {
	ts := NewTableSchema("t")
	for i, k := range []FeatureKind{Dense, Sparse, Dense, ScoreList} {
		if err := ts.AddColumn(Column{ID: FeatureID(i + 1), Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	dense := ts.IDsOfKind(Dense)
	if len(dense) != 2 || dense[0] != 1 || dense[1] != 3 {
		t.Fatalf("IDsOfKind(Dense) = %v", dense)
	}
}

func TestProjection(t *testing.T) {
	p := NewProjection(3, 1, 2)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if !p.Contains(2) || p.Contains(4) {
		t.Fatal("Contains misbehaves")
	}
	p.Add(4)
	ids := p.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
	if len(ids) != 4 {
		t.Fatalf("len(IDs) = %d, want 4", len(ids))
	}
}

func TestLifecycleLogged(t *testing.T) {
	// §4.3: experimental, active, and deprecated features are actively
	// written; beta and reaped are not.
	logged := map[LifecycleState]bool{
		Beta: false, Experimental: true, Active: true, Deprecated: true, Reaped: false,
	}
	for s, want := range logged {
		if got := s.Logged(); got != want {
			t.Errorf("%v.Logged() = %v, want %v", s, got, want)
		}
	}
}

func TestRegistryProposeAndTransition(t *testing.T) {
	r := NewRegistry()
	id := r.Propose(Sparse, "liked_pages", 10)
	f, ok := r.Get(id)
	if !ok || f.State != Beta || f.Kind != Sparse || f.CreatedDay != 10 {
		t.Fatalf("Get = %+v, %v", f, ok)
	}
	if err := r.Transition(id, Active); err != nil {
		t.Fatal(err)
	}
	if err := r.Transition(id, Experimental); err == nil {
		t.Fatal("backwards transition accepted")
	}
	if err := r.Transition(999, Active); err == nil {
		t.Fatal("unknown feature accepted")
	}
}

func TestRegistryCountByState(t *testing.T) {
	r := NewRegistry()
	a := r.Propose(Dense, "a", 1)
	b := r.Propose(Dense, "b", 5)
	r.Propose(Dense, "c", 100) // outside window
	if err := r.Transition(a, Active); err != nil {
		t.Fatal(err)
	}
	if err := r.Transition(b, Deprecated); err != nil {
		t.Fatal(err)
	}
	counts := r.CountByState(0, 30)
	if counts[Active] != 1 || counts[Deprecated] != 1 || counts[Beta] != 0 {
		t.Fatalf("CountByState = %v", counts)
	}
}

// Property: registry IDs are unique and dense.
func TestRegistryUniqueIDsProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRegistry()
		seen := make(map[FeatureID]bool)
		for i := 0; i < int(n); i++ {
			id := r.Propose(Dense, "f", i)
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return r.Len() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
