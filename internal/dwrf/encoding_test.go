package dwrf

import (
	"math"
	"testing"

	"dsi/internal/schema"
)

// encRows builds a stripe of samples with per-feature shapes chosen to
// trigger each encoding: feature 1 dense on every row (RLE-friendly),
// feature 2 low-cardinality sparse (dict), feature 3 strictly ascending
// IDs (delta), feature 4 high-cardinality random (plain wins), feature
// 5 low-cardinality score list (dict).
func encRows(n int) []*schema.Sample {
	rows := make([]*schema.Sample, n)
	next := int64(100)
	for i := range rows {
		s := schema.NewSample()
		s.DenseFeatures[1] = float32(i)
		s.SparseFeatures[2] = []int64{int64(i % 4), int64(i % 4), 9}
		asc := make([]int64, 5)
		for j := range asc {
			next += int64(1 + (i+j)%97)
			asc[j] = next
		}
		s.SparseFeatures[3] = asc
		// A full-64-bit-spread value per row: dict would need one entry
		// per occurrence and a zigzag varint of a full-range magnitude
		// costs 9-10 bytes, so plain's fixed 8 wins.
		s.SparseFeatures[4] = []int64{int64(uint64(i+1) * 0x9E3779B97F4A7C15)}
		s.ScoreListFeatures[5] = []schema.ScoredValue{{Value: int64(i % 3), Score: float32(i % 2)}}
		rows[i] = s
	}
	return rows
}

func TestEncodingSelectionPerStream(t *testing.T) {
	rows := encRows(128)
	var enc stripeEncoder
	check := func(name string, got, want StreamEncoding, payload []byte) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: selected %v, want %v", name, got, want)
		}
		if len(payload) == 0 {
			t.Fatalf("%s: empty payload", name)
		}
	}
	p, e := enc.encodeDense(rows, 1, false)
	check("dense full-presence", e, EncRLE, p)
	p, e = enc.encodeSparse(rows, 2, false)
	check("sparse low-cardinality", e, EncDict, p)
	p, e = enc.encodeSparse(rows, 3, false)
	check("sparse ascending", e, EncDelta, p)
	p, e = enc.encodeSparse(rows, 4, false)
	check("sparse high-cardinality", e, EncPlain, p)
	p, e = enc.encodeScoreList(rows, 5, false)
	check("score-list low-cardinality", e, EncDict, p)

	// plainOnly must force EncPlain everywhere.
	if _, e := enc.encodeDense(rows, 1, true); e != EncPlain {
		t.Fatalf("plainOnly dense selected %v", e)
	}
	if _, e := enc.encodeSparse(rows, 2, true); e != EncPlain {
		t.Fatalf("plainOnly sparse selected %v", e)
	}
	if _, e := enc.encodeScoreList(rows, 5, true); e != EncPlain {
		t.Fatalf("plainOnly score-list selected %v", e)
	}
}

// TestEncodingNeverLargerThanPlain pins the selection rule: whatever
// encoding wins, its payload is never larger than the plain layout of
// the same stream.
func TestEncodingNeverLargerThanPlain(t *testing.T) {
	rows := encRows(96)
	var enc stripeEncoder
	for _, id := range []schema.FeatureID{2, 3, 4} {
		sized, _ := enc.encodeSparse(rows, id, false)
		n := len(sized)
		plain, _ := enc.encodeSparse(rows, id, true)
		if n > len(plain) {
			t.Fatalf("sparse %d: selected payload %d > plain %d", id, n, len(plain))
		}
	}
	sized, _ := enc.encodeDense(rows, 1, false)
	plain, _ := enc.encodeDense(rows, 1, true)
	if len(sized) > len(plain) {
		t.Fatalf("dense: selected payload %d > plain %d", len(sized), len(plain))
	}
	sized, _ = enc.encodeScoreList(rows, 5, false)
	plain, _ = enc.encodeScoreList(rows, 5, true)
	if len(sized) > len(plain) {
		t.Fatalf("score-list: selected payload %d > plain %d", len(sized), len(plain))
	}
}

// TestDictColumnRoundTrip writes a dict-eligible table and checks the
// batch reader hands back a dictionary-indexed column whose
// materialization matches a plain-encoded read of the same data.
func TestDictColumnRoundTrip(t *testing.T) {
	ts := schema.NewTableSchema("enc")
	for _, c := range []schema.Column{
		{ID: 1, Kind: schema.Dense, Name: "d"},
		{ID: 2, Kind: schema.Sparse, Name: "s"},
		{ID: 3, Kind: schema.Sparse, Name: "s_asc"},
		{ID: 4, Kind: schema.Sparse, Name: "s_rand"},
		{ID: 5, Kind: schema.ScoreList, Name: "sl"},
	} {
		if err := ts.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	rows := encRows(128)
	c := newCluster(t)
	writeFile(t, c, "v2", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	writeFile(t, c, "v1", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64, PlainEncodings: true})

	r2, err := OpenReader(c, "v2")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := OpenReader(c, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r2.Stripes(); i++ {
		b2, _, err := r2.ReadStripeBatchArena(i, nil, ReadOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b1, _, err := r1.ReadStripeBatchArena(i, nil, ReadOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		col := b2.Sparse[2]
		if !col.IsDict() {
			t.Fatalf("stripe %d: low-cardinality column decoded plain", i)
		}
		if len(col.Dict) != 5 { // values 0..3 and 9
			t.Fatalf("stripe %d: dict has %d entries, want 5", i, len(col.Dict))
		}
		want := b1.Sparse[2]
		if want.IsDict() {
			t.Fatal("plain-encoded file produced a dict column")
		}
		got := col.MaterializedValues(nil)
		if len(got) != len(want.Values) {
			t.Fatalf("stripe %d: %d values, want %d", i, len(got), len(want.Values))
		}
		for j := range got {
			if got[j] != want.Values[j] {
				t.Fatalf("stripe %d value %d: %d != %d", i, j, got[j], want.Values[j])
			}
		}
		// MaterializedValues on a plain column is the identity (no copy).
		if mv := want.MaterializedValues(nil); &mv[0] != &want.Values[0] {
			t.Fatal("MaterializedValues copied a plain column")
		}
		// Row-data (unflattened) streams stay plain; score lists decode
		// materialized regardless of wire encoding.
		if got, want := b2.ScoreList[5], b1.ScoreList[5]; len(got.Values) != len(want.Values) {
			t.Fatalf("stripe %d: score list %d values, want %d", i, len(got.Values), len(want.Values))
		}
	}
}

// TestScoreListDictSignedZeroAndNaN pins the scored dictionary's notion
// of equality: pairs are distinct when their score bits are. Deduplicating
// by float equality merged -0 into +0 (and -0 then indexed past its entry)
// and kept every NaN apart.
func TestScoreListDictSignedZeroAndNaN(t *testing.T) {
	ts := schema.NewTableSchema("scores")
	if err := ts.AddColumn(schema.Column{ID: 5, Kind: schema.ScoreList, Name: "sl"}); err != nil {
		t.Fatal(err)
	}
	negZero := math.Float32frombits(1 << 31)
	nan := float32(math.NaN())
	scores := []float32{0, negZero, nan, nan}
	rows := make([]*schema.Sample, 64)
	for i := range rows {
		rows[i] = schema.NewSample()
		rows[i].ScoreListFeatures[5] = []schema.ScoredValue{
			{Value: 7, Score: scores[i%4]},
			{Value: 7, Score: scores[(i+1)%4]},
		}
	}
	var enc stripeEncoder
	if _, e := enc.encodeScoreList(rows, 5, false); e != EncDict {
		t.Fatalf("selected %v, want the dictionary encoding", e)
	}
	if len(enc.dict.keys) != 3 {
		t.Fatalf("dictionary has %d entries, want 3 (+0, -0, NaN)", len(enc.dict.keys))
	}

	c := newCluster(t)
	writeFile(t, c, "scores", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	r, err := OpenReader(c, "scores")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.ReadStripeBatchArena(0, nil, ReadOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := b.ScoreList[5]
	for i, row := range rows {
		got, want := col.RowValues(i), row.ScoreListFeatures[5]
		if len(got) != len(want) {
			t.Fatalf("row %d: %d pairs, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k].Value != want[k].Value || math.Float32bits(got[k].Score) != math.Float32bits(want[k].Score) {
				t.Fatalf("row %d pair %d: (%d, %#x), want (%d, %#x)", i, k,
					got[k].Value, math.Float32bits(got[k].Score), want[k].Value, math.Float32bits(want[k].Score))
			}
		}
	}
}

func TestMaterializeDictsExpandsInPlace(t *testing.T) {
	b := &Batch{
		Rows:   2,
		Sparse: map[schema.FeatureID]*SparseColumn{},
	}
	b.Sparse[1] = &SparseColumn{
		Offsets: []int32{0, 2, 3},
		Values:  []int64{1, 0, 1},
		Dict:    []int64{50, 60},
	}
	b.Sparse[2] = &SparseColumn{
		Offsets: []int32{0, 1, 1},
		Values:  []int64{7},
	}
	plainBefore := b.Sparse[2]
	b.MaterializeDicts()
	c := b.Sparse[1]
	if c.IsDict() {
		t.Fatal("dict not expanded")
	}
	if c.Values[0] != 60 || c.Values[1] != 50 || c.Values[2] != 60 {
		t.Fatalf("expanded values = %v", c.Values)
	}
	if b.Sparse[2] != plainBefore {
		t.Fatal("plain column was replaced")
	}
}

func TestBufPoolClasses(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 0}, {4 << 10, 0}, {(4 << 10) + 1, 1}, {64 << 10, 1},
		{(64 << 10) + 1, 2}, {1 << 20, 2}, {(1 << 20) + 1, 3},
		{16 << 20, 3}, {(16 << 20) + 1, -1},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.want {
			t.Fatalf("bufClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	var p bufPool
	bp := p.get(100)
	if len(*bp) != 100 || cap(*bp) < 100 {
		t.Fatalf("get(100): len %d cap %d", len(*bp), cap(*bp))
	}
	p.put(bp)
	// A jumbo buffer must not re-pool.
	jumbo := make([]byte, (16<<20)+1)
	p.put(&jumbo)
	if got := p.get((16 << 20) + 1); cap(*got) < (16<<20)+1 {
		t.Fatalf("jumbo get returned cap %d", cap(*got))
	}
}
