package dwrf

import (
	"math"
	"slices"
	"testing"

	"dsi/internal/schema"
)

// encRows builds a stripe of samples with per-feature shapes chosen to
// trigger each encoding: feature 1 dense on every row (RLE-friendly),
// feature 2 low-cardinality sparse (dict), feature 3 strictly ascending
// IDs (delta), feature 4 high-cardinality random (plain wins), feature
// 5 low-cardinality score list (plain, as every score list).
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
		// Eight full-64-bit-spread values per row: dict would need one key
		// per occurrence, about 8 bytes of sorted-key difference plus a
		// 2-byte index, and a zigzag varint of a full-range magnitude costs
		// 9-10 bytes, so plain's fixed 8 wins.
		spread := make([]int64, 8)
		for j := range spread {
			spread[j] = int64(uint64(8*i+j+1) * 0x9E3779B97F4A7C15)
		}
		s.SparseFeatures[4] = spread
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

	// The writer records each stream's encoding in the footer; score
	// lists are plain even when their pairs are few.
	c := newCluster(t)
	writeFile(t, c, "sel", flushSchema(t), rows, WriterOptions{Flatten: true, RowsPerStripe: len(rows)})
	r, err := OpenReader(c, "sel")
	if err != nil {
		t.Fatal(err)
	}
	want := map[schema.FeatureID]StreamEncoding{1: EncRLE, 2: EncDict, 3: EncDelta, 4: EncPlain, 5: EncPlain}
	for _, s := range r.footer.Stripes[0].Streams {
		if s.Kind != streamLabel && s.Encoding != want[s.Feature] {
			t.Fatalf("feature %d: footer records %v, want %v", s.Feature, s.Encoding, want[s.Feature])
		}
	}

	// plainOnly must force EncPlain everywhere.
	if _, e := enc.encodeDense(rows, 1, true); e != EncPlain {
		t.Fatalf("plainOnly dense selected %v", e)
	}
	if _, e := enc.encodeSparse(rows, 2, true); e != EncPlain {
		t.Fatalf("plainOnly sparse selected %v", e)
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
		b2, _, err := r2.ReadStripe(i, nil, ReadOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b1, _, err := r1.ReadStripe(i, nil, ReadOptions{}, nil)
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

// TestScoreListDictSignedZeroAndNaN: score lists round-trip their score
// bits exactly, -0 and NaN included.
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
	c := newCluster(t)
	writeFile(t, c, "scores", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	r, err := OpenReader(c, "scores")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.ReadStripe(0, nil, ReadOptions{}, nil)
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
	b := p.get(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("get(100): len %d cap %d", len(b), cap(b))
	}
	p.put(b)
	// A jumbo buffer must not be recycled.
	jumbo := make([]byte, (16<<20)+1)
	p.put(jumbo)
	if got := p.get((16 << 20) + 1); cap(got) < (16<<20)+1 {
		t.Fatalf("jumbo get returned cap %d", cap(got))
	}
}

// TestCompactDictKeysRoundTripExtremes: delta-coded keys wrap as uint64
// arithmetic does, so a dictionary spanning MinInt64 to MaxInt64 decodes
// to the keys it was written with. Score-list keys repeat a value under
// different scores, a zero difference their decoder must accept; no
// writer emits them any more, so that payload is built by hand.
func TestCompactDictKeysRoundTripExtremes(t *testing.T) {
	ext := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	rows := make([]*schema.Sample, 64)
	for i := range rows {
		rows[i] = schema.NewSample()
		if i%3 == 2 {
			continue // absent rows, so entry gaps are not all zero
		}
		rows[i].SparseFeatures[1] = []int64{ext[i%len(ext)], ext[(i+3)%len(ext)]}
	}
	var enc stripeEncoder
	payload, e := enc.encodeSparse(rows, 1, false)
	if e != EncDict {
		t.Fatalf("sparse selected %v, want the dictionary encoding", e)
	}
	sc := SparseColumn{Offsets: make([]int32, len(rows)+1)}
	if err := decodeSparseInto(payload, e, Version, len(rows), &sc); err != nil {
		t.Fatal(err)
	}
	vals := sc.MaterializedValues(nil)
	for i, r := range rows {
		if got, want := vals[sc.Offsets[i]:sc.Offsets[i+1]], r.SparseFeatures[1]; !slices.Equal(got, want) {
			t.Fatalf("sparse row %d: %v, want %v", i, got, want)
		}
	}

	// A score-list dictionary of the extremes in value-major order, each
	// value under scores 0 and 0.5: values MinInt64, MinInt64+1, -1, 0,
	// 1, MaxInt64-1, MaxInt64, so key differences from 0 (a repeated
	// value) to 2^63-2. Row r (of fuzzRows, every other one absent) holds
	// keys r and r+7.
	sorted := slices.Sorted(slices.Values(ext))
	var dict []schema.ScoredValue
	for _, v := range sorted {
		dict = append(dict, schema.ScoredValue{Value: v, Score: 0}, schema.ScoredValue{Value: v, Score: 0.5})
	}
	var p payloadWriter
	p.u32(fuzzRows / 2) // entries
	p.u32(uint32(len(dict)))
	for i, k := range dict {
		if i == 0 {
			p.varint(k.Value)
		} else {
			p.uvarint(uint64(k.Value - dict[i-1].Value))
		}
		p.f32(k.Score)
	}
	want := make([][]schema.ScoredValue, fuzzRows)
	for r := 0; r < fuzzRows; r += 2 {
		a, b := r%len(dict), (r+7)%len(dict)
		want[r] = []schema.ScoredValue{dict[a], dict[b]}
		gap := 0
		if r > 0 {
			gap = 1
		}
		p.uvarint(uint64(gap))
		p.uvarint(2)
		p.idx(uint32(a), 1)
		p.idx(uint32(b), 1)
	}
	lc := ScoreListColumn{Offsets: make([]int32, fuzzRows+1)}
	if err := decodeScoreListInto(p.bytes(), EncDict, Version, fuzzRows, &lc); err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got := lc.RowValues(r); !slices.Equal(got, want[r]) {
			t.Fatalf("score-list row %d: %v, want %v", r, got, want[r])
		}
	}
}

// compactDictHostile is one hand-built compact dictionary payload that
// the decoders must reject, for a stripe of fuzzRows rows.
type compactDictHostile struct {
	name    string
	scored  bool
	payload []byte
}

// compactDictHostiles builds, for sparse and score-list streams, the
// compact dictionary payloads a decoder must refuse: a truncated varint,
// a dictionary length the bytes left cannot hold, a zero sparse key
// difference, a row gap past the stripe, and an index past the
// dictionary. Each differs from a valid one-entry payload in one place.
func compactDictHostiles() []compactDictHostile {
	build := func(scored bool, dlen uint32, keys []uint64, gap uint64, idx byte) []byte {
		var p payloadWriter
		p.u32(1) // entries
		p.u32(dlen)
		for i, k := range keys {
			if i == 0 {
				p.varint(int64(k))
			} else {
				p.uvarint(k)
			}
			if scored {
				p.f32(0.5)
			}
		}
		p.uvarint(gap)
		p.uvarint(1) // n
		return append(p.bytes(), idx)
	}
	var out []compactDictHostile
	for _, scored := range []bool{false, true} {
		// A key varint whose every byte sets the continuation bit.
		truncated := append(build(scored, 1, nil, 0, 0)[:8], 0x80, 0x80, 0x80, 0x80, 0x80)
		out = append(out,
			compactDictHostile{"truncated varint", scored, truncated},
			compactDictHostile{"dictLen past the bytes left", scored, build(scored, 1<<20, []uint64{5}, 0, 0)},
			compactDictHostile{"row gap past rows", scored, build(scored, 1, []uint64{5}, fuzzRows, 0)},
			compactDictHostile{"index past the dictionary", scored, build(scored, 1, []uint64{5}, 0, 1)},
		)
	}
	return append(out, compactDictHostile{"zero sparse key difference", false, build(false, 2, []uint64{5, 0}, 0, 1)})
}

// TestCompactDictRejectsHostileBytes: each hostile payload errors, and
// the valid payload it was cut from decodes.
func TestCompactDictRejectsHostileBytes(t *testing.T) {
	decode := func(scored bool, payload []byte) error {
		if scored {
			lc := ScoreListColumn{Offsets: make([]int32, fuzzRows+1)}
			return decodeScoreListInto(payload, EncDict, Version, fuzzRows, &lc)
		}
		sc := SparseColumn{Offsets: make([]int32, fuzzRows+1)}
		return decodeSparseInto(payload, EncDict, Version, fuzzRows, &sc)
	}
	for _, h := range compactDictHostiles() {
		if err := decode(h.scored, h.payload); err == nil {
			t.Errorf("scored=%v %s: decoded without error", h.scored, h.name)
		}
	}
	// The same payloads with every field in range decode; a score list
	// may repeat a key value.
	var p payloadWriter
	p.u32(1)
	p.u32(2)
	p.varint(5)
	p.uvarint(3)
	p.uvarint(fuzzRows - 1)
	p.uvarint(2)
	valid := append(p.bytes(), 0, 1)
	if err := decode(false, valid); err != nil {
		t.Fatalf("valid sparse payload: %v", err)
	}
	p.reset()
	p.u32(1)
	p.u32(2)
	p.varint(5)
	p.f32(0.5)
	p.uvarint(0)
	p.f32(1)
	p.uvarint(fuzzRows - 1)
	p.uvarint(2)
	if err := decode(true, append(p.bytes(), 0, 1)); err != nil {
		t.Fatalf("valid score-list payload with a repeated value: %v", err)
	}
}

// TestCompactDictRM1Bytes guards what format v3's compact dictionaries
// save on the benchmark's data shape. Four 256-row RM1 stripes at sparse
// cardinality 0 and 4096 stored 695.4 and 610.8 stream bytes per row
// under format v2's fixed-width dictionaries; v3 must store at most 0.85
// of that.
func TestCompactDictRM1Bytes(t *testing.T) {
	for _, c := range []struct {
		card uint64
		v2   float64
	}{{0, 695.4}, {4096, 610.8}} {
		r := writeRM1(t, c.card, 4)
		perRow := float64(r.DataBytes()) / float64(r.Rows())
		if limit := 0.85 * c.v2; perRow > limit {
			t.Errorf("card %d: %.1f stored bytes per row, limit %.1f (0.85 of v2's %.1f)", c.card, perRow, limit, c.v2)
		}
		t.Logf("card %d: %.1f stored bytes per row (v2: %.1f)", c.card, perRow, c.v2)
	}
}
