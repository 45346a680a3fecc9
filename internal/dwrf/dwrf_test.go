package dwrf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// buildSchema returns a schema with nDense dense and nSparse sparse
// features plus one score-list feature. Dense IDs are 1..nDense, sparse
// IDs follow, score-list is last.
func buildSchema(t testing.TB, nDense, nSparse int) *schema.TableSchema {
	t.Helper()
	ts := schema.NewTableSchema("t")
	id := schema.FeatureID(1)
	for i := 0; i < nDense; i++ {
		if err := ts.AddColumn(schema.Column{ID: id, Kind: schema.Dense, Name: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i < nSparse; i++ {
		if err := ts.AddColumn(schema.Column{ID: id, Kind: schema.Sparse, Name: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if err := ts.AddColumn(schema.Column{ID: id, Kind: schema.ScoreList, Name: "sl"}); err != nil {
		t.Fatal(err)
	}
	return ts
}

// genRows produces deterministic pseudo-random samples with the given
// coverage.
func genRows(ts *schema.TableSchema, n int, coverage float64, seed int64) []*schema.Sample {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]*schema.Sample, n)
	for i := range rows {
		s := schema.NewSample()
		s.Label = float32(rng.Intn(2))
		for _, c := range ts.Columns {
			if rng.Float64() > coverage {
				continue
			}
			switch c.Kind {
			case schema.Dense:
				s.DenseFeatures[c.ID] = rng.Float32()
			case schema.Sparse:
				vals := make([]int64, 1+rng.Intn(8))
				for j := range vals {
					vals[j] = rng.Int63n(1 << 30)
				}
				s.SparseFeatures[c.ID] = vals
			case schema.ScoreList:
				vals := make([]schema.ScoredValue, 1+rng.Intn(4))
				for j := range vals {
					vals[j] = schema.ScoredValue{Value: rng.Int63n(1 << 20), Score: rng.Float32()}
				}
				s.ScoreListFeatures[c.ID] = vals
			}
		}
		rows[i] = s
	}
	return rows
}

func newCluster(t testing.TB) *tectonic.Cluster {
	t.Helper()
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeFile(t testing.TB, c *tectonic.Cluster, path string, ts *schema.TableSchema, rows []*schema.Sample, opts WriterOptions) {
	t.Helper()
	w, err := NewWriter(c, path, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readStats reads stripe i, releases its batch and returns the read's
// stats.
func readStats(t testing.TB, r *Reader, i int, proj *schema.Projection, opts ReadOptions) ReadStats {
	t.Helper()
	b, stats, err := r.ReadStripe(i, proj, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	return stats
}

// projectRows deep-copies rows, keeping only the features proj selects
// (every feature when proj is nil).
func projectRows(rows []*schema.Sample, proj *schema.Projection) []*schema.Sample {
	out := make([]*schema.Sample, len(rows))
	for i, s := range rows {
		c := schema.NewSample()
		c.Label = s.Label
		for id, v := range s.DenseFeatures {
			if proj == nil || proj.Contains(id) {
				c.DenseFeatures[id] = v
			}
		}
		for id, vals := range s.SparseFeatures {
			if proj == nil || proj.Contains(id) {
				c.SparseFeatures[id] = append([]int64(nil), vals...)
			}
		}
		for id, vals := range s.ScoreListFeatures {
			if proj == nil || proj.Contains(id) {
				c.ScoreListFeatures[id] = append([]schema.ScoredValue(nil), vals...)
			}
		}
		out[i] = c
	}
	return out
}

// requireReadsRows reads every stripe of r under proj and requires
// each, its dictionaries materialized, to equal BatchFromSamples of the
// projected written rows it holds. It returns the reads' merged stats.
func requireReadsRows(t testing.TB, r *Reader, rows []*schema.Sample, proj *schema.Projection, opts ReadOptions) ReadStats {
	t.Helper()
	want := projectRows(rows, proj)
	var stats ReadStats
	off := 0
	for i := 0; i < r.Stripes(); i++ {
		b, st, err := r.ReadStripe(i, proj, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats.add(st)
		n := b.Rows
		if off+n > len(want) {
			t.Fatalf("stripe %d ends at row %d of %d written", i, off+n, len(want))
		}
		b.MaterializeDicts() // compare values, not dictionary indices
		requireSameBatch(t, BatchFromSamples(want[off:off+n]), b)
		b.Release()
		off += n
	}
	if off != len(want) {
		t.Fatalf("read %d rows, wrote %d", off, len(want))
	}
	return stats
}

func TestRoundTripFlattened(t *testing.T) {
	ts := buildSchema(t, 4, 3)
	rows := genRows(ts, 100, 0.7, 1)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 32})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 100 || !r.Flattened() {
		t.Fatalf("Rows=%d Flattened=%v", r.Rows(), r.Flattened())
	}
	if r.Stripes() != 4 { // 32+32+32+4
		t.Fatalf("Stripes = %d, want 4", r.Stripes())
	}
	requireReadsRows(t, r, rows, nil, ReadOptions{})
}

func TestRoundTripUnflattened(t *testing.T) {
	ts := buildSchema(t, 4, 3)
	rows := genRows(ts, 50, 0.6, 2)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: false, RowsPerStripe: 16})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	if r.Flattened() {
		t.Fatal("file should not be flattened")
	}
	requireReadsRows(t, r, rows, nil, ReadOptions{})
}

func TestProjectionFlattened(t *testing.T) {
	ts := buildSchema(t, 5, 5)
	rows := genRows(ts, 64, 1.0, 3)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	proj := schema.NewProjection(1, 6) // one dense, one sparse
	b, _, err := r.ReadStripe(0, proj, ReadOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Dense) != 1 || len(b.Sparse) != 1 || len(b.ScoreList) != 0 {
		t.Fatalf("batch has unprojected columns: %d dense, %d sparse, %d score-list", len(b.Dense), len(b.Sparse), len(b.ScoreList))
	}
	b.Release()
	requireReadsRows(t, r, rows, proj, ReadOptions{})
}

func TestProjectionUnflattenedReadsEverything(t *testing.T) {
	// The paper's baseline: without flattening, the whole row is read
	// from storage even when only two features are wanted.
	ts := buildSchema(t, 5, 5)
	rows := genRows(ts, 64, 1.0, 4)
	c := newCluster(t)
	writeFile(t, c, "plain", ts, rows, WriterOptions{Flatten: false, RowsPerStripe: 64})
	writeFile(t, c, "flat", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})

	proj := schema.NewProjection(1, 6)
	rPlain, err := OpenReader(c, "plain")
	if err != nil {
		t.Fatal(err)
	}
	rFlat, err := OpenReader(c, "flat")
	if err != nil {
		t.Fatal(err)
	}
	statsPlain := readStats(t, rPlain, 0, proj, ReadOptions{})
	statsFlat := readStats(t, rFlat, 0, proj, ReadOptions{})
	if statsFlat.BytesRead*2 > statsPlain.BytesRead {
		t.Fatalf("flattened read %d bytes, plain %d: flattening should cut bytes by >2x",
			statsFlat.BytesRead, statsPlain.BytesRead)
	}
	// Both layouts decode the projected rows.
	requireReadsRows(t, rPlain, rows, proj, ReadOptions{})
	requireReadsRows(t, rFlat, rows, proj, ReadOptions{})
}

func TestCoalescingReducesIOsAndOverReads(t *testing.T) {
	ts := buildSchema(t, 20, 20)
	rows := genRows(ts, 128, 1.0, 5)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 128})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Project a scattered subset of features.
	proj := schema.NewProjection(1, 5, 9, 22, 30, 38)

	noCoalesce := readStats(t, r, 0, proj, ReadOptions{})
	coalesced := readStats(t, r, 0, proj, ReadOptions{CoalesceBytes: DefaultCoalesceBytes})
	if noCoalesce.IOs <= coalesced.IOs {
		t.Fatalf("coalescing should reduce IOs: %d -> %d", noCoalesce.IOs, coalesced.IOs)
	}
	if noCoalesce.BytesOverRead != 0 {
		t.Fatalf("uncoalesced reads should not over-read, got %d", noCoalesce.BytesOverRead)
	}
	if coalesced.BytesOverRead == 0 {
		t.Fatal("coalesced reads of scattered features should over-read")
	}
	if coalesced.BytesWanted != noCoalesce.BytesWanted {
		t.Fatalf("wanted bytes changed: %d vs %d", coalesced.BytesWanted, noCoalesce.BytesWanted)
	}
}

func TestFeatureReorderingReducesOverRead(t *testing.T) {
	ts := buildSchema(t, 20, 20)
	rows := genRows(ts, 128, 1.0, 6)
	c := newCluster(t)

	popular := []schema.FeatureID{2, 7, 11, 23, 31, 39}
	writeFile(t, c, "rand", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 128})
	writeFile(t, c, "ordered", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 128, StreamOrder: popular})

	proj := schema.NewProjection(popular...)
	opts := ReadOptions{CoalesceBytes: DefaultCoalesceBytes}

	rRand, err := OpenReader(c, "rand")
	if err != nil {
		t.Fatal(err)
	}
	rOrd, err := OpenReader(c, "ordered")
	if err != nil {
		t.Fatal(err)
	}
	statsRand := readStats(t, rRand, 0, proj, opts)
	statsOrd := readStats(t, rOrd, 0, proj, opts)
	if statsOrd.BytesOverRead >= statsRand.BytesOverRead {
		t.Fatalf("reordering should cut over-read: %d -> %d",
			statsRand.BytesOverRead, statsOrd.BytesOverRead)
	}
	// Decoded data must be identical regardless of layout.
	requireReadsRows(t, rRand, rows, proj, opts)
	requireReadsRows(t, rOrd, rows, proj, opts)
}

func TestLargeStripesIncreaseIOSize(t *testing.T) {
	ts := buildSchema(t, 10, 10)
	rows := genRows(ts, 512, 1.0, 7)
	c := newCluster(t)
	writeFile(t, c, "small", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 64})
	writeFile(t, c, "large", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 512})

	proj := schema.NewProjection(1, 11)
	avgIO := func(path string) float64 {
		r, err := OpenReader(c, path)
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		var ios int
		for i := 0; i < r.Stripes(); i++ {
			stats := readStats(t, r, i, proj, ReadOptions{})
			bytes += stats.BytesRead
			ios += stats.IOs
		}
		return float64(bytes) / float64(ios)
	}
	small, large := avgIO("small"), avgIO("large")
	if large <= small*2 {
		t.Fatalf("large stripes should raise average I/O size: small=%.0f large=%.0f", small, large)
	}
}

// TestReadStripeOneBatchBothLayouts writes the same rows flattened and
// regular-map and reads every stripe of both under a projection: each
// pair of batches, dictionaries materialized, equals each other and
// BatchFromSamples of the projected written rows. Feature 2 is written
// only from row 48 on, so the first stripe has no column for it in
// either layout.
func TestReadStripeOneBatchBothLayouts(t *testing.T) {
	ts := buildSchema(t, 4, 4)
	rows := genRows(ts, 96, 0.6, 8)
	for _, row := range rows[:48] {
		delete(row.DenseFeatures, 2)
	}
	c := newCluster(t)
	writeFile(t, c, "flat", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 48})
	writeFile(t, c, "map", ts, rows, WriterOptions{Flatten: false, RowsPerStripe: 48})
	rFlat, err := OpenReader(c, "flat")
	if err != nil {
		t.Fatal(err)
	}
	rMap, err := OpenReader(c, "map")
	if err != nil {
		t.Fatal(err)
	}
	proj := schema.NewProjection(1, 2, 5, 6, 9)
	want := projectRows(rows, proj)
	for stripe := 0; stripe < rFlat.Stripes(); stripe++ {
		flat, _, err := rFlat.ReadStripe(stripe, proj, ReadOptions{}, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		regular, _, err := rMap.ReadStripe(stripe, proj, ReadOptions{}, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := flat.Dense[2]; ok != (stripe > 0) {
			t.Fatalf("stripe %d: dense 2 column present = %v", stripe, ok)
		}
		flat.MaterializeDicts()
		regular.MaterializeDicts()
		requireSameBatch(t, flat, regular)
		requireSameBatch(t, BatchFromSamples(want[stripe*48:(stripe+1)*48]), flat)
		flat.Release()
		regular.Release()
	}
}

func TestStripeOutOfRange(t *testing.T) {
	ts := buildSchema(t, 2, 2)
	rows := genRows(ts, 8, 1.0, 10)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: true})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadStripe(5, nil, ReadOptions{}, nil); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}
	if _, _, err := r.ReadStripe(-1, nil, ReadOptions{}, nil); err == nil {
		t.Fatal("negative stripe accepted")
	}
}

// TestRegularMapStripeChecksFooter pins the checks a regular-map read
// makes of a footer, which carries no checksum: a row count its row
// data does not hold, or a stripe with no row-data stream, is an error,
// never a batch of the wrong height or a panic.
func TestRegularMapStripeChecksFooter(t *testing.T) {
	ts := buildSchema(t, 2, 2)
	c := newCluster(t)
	writeFile(t, c, "f", ts, genRows(ts, 8, 1.0, 10), WriterOptions{Flatten: false})
	for name, lie := range map[string]func(*StripeMeta){
		"rows":      func(m *StripeMeta) { m.Rows++ },
		"no stream": func(m *StripeMeta) { m.Streams, m.ContentHash = nil, 0 },
	} {
		r, err := OpenReader(c, "f")
		if err != nil {
			t.Fatal(err)
		}
		lie(&r.footer.Stripes[0])
		if _, _, err := r.ReadStripe(0, nil, ReadOptions{}, nil); err == nil {
			t.Fatalf("%s: footer that disagrees with the row data accepted", name)
		}
	}
}

func TestWriteAfterClose(t *testing.T) {
	ts := buildSchema(t, 1, 1)
	c := newCluster(t)
	w, err := NewWriter(c, "f", ts, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow(schema.NewSample()); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestUnknownFeatureRejected(t *testing.T) {
	ts := buildSchema(t, 1, 0)
	c := newCluster(t)
	w, err := NewWriter(c, "f", ts, WriterOptions{Flatten: true, RowsPerStripe: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := schema.NewSample()
	s.DenseFeatures[99] = 1 // not in schema
	if err := w.WriteRow(s); err == nil {
		t.Fatal("row with unknown feature accepted")
	}
}

func TestOpenReaderErrors(t *testing.T) {
	c := newCluster(t)
	if _, err := OpenReader(c, "missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	// Corrupt: a file without magic.
	if err := c.Create("junk"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("junk", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(c, "junk"); err == nil {
		t.Fatal("junk file accepted")
	}
}

func TestPlanIOAdjacentStreamsMergeWithZeroGap(t *testing.T) {
	streams := []StreamMeta{
		{Offset: 0, Length: 10},
		{Offset: 10, Length: 10},
		{Offset: 40, Length: 5},
	}
	plans := planIO(nil, streams, 0)
	if len(plans) != 2 {
		t.Fatalf("planIO = %d plans, want 2", len(plans))
	}
	if plans[0].length != 20 || plans[1].length != 5 {
		t.Fatalf("plans = %+v", plans)
	}
}

func TestPlanIOCoalescesAcrossGaps(t *testing.T) {
	streams := []StreamMeta{
		{Offset: 0, Length: 10},
		{Offset: 30, Length: 10}, // gap 20
		{Offset: 100, Length: 10},
	}
	plans := planIO(nil, streams, 25)
	if len(plans) != 2 {
		t.Fatalf("planIO = %d plans, want 2: %+v", len(plans), plans)
	}
	if plans[0].offset != 0 || plans[0].length != 40 {
		t.Fatalf("first plan = %+v", plans[0])
	}
}

// Property: flattened round-trip preserves all samples for arbitrary
// coverage and stripe sizes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, stripeRows uint8, coverPct uint8) bool {
		ts := buildSchema(t, 3, 3)
		cover := float64(coverPct%101) / 100
		rows := genRows(ts, 40, cover, seed)
		c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 1, ChunkSize: 1 << 18})
		if err != nil {
			return false
		}
		w, err := NewWriter(c, "f", ts, WriterOptions{Flatten: true, RowsPerStripe: int(stripeRows%32) + 1})
		if err != nil {
			return false
		}
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := OpenReader(c, "f")
		if err != nil {
			return false
		}
		requireReadsRows(t, r, rows, nil, ReadOptions{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the I/O plan always covers every selected stream exactly, and
// plan spans never overlap.
func TestPlanIOCoversProperty(t *testing.T) {
	f := func(lens []uint16, gaps []uint16, coalesce uint16) bool {
		n := len(lens)
		if len(gaps) < n {
			n = len(gaps)
		}
		if n == 0 {
			return true
		}
		var streams []StreamMeta
		off := int64(0)
		for i := 0; i < n; i++ {
			off += int64(gaps[i] % 256)
			l := int64(lens[i]%256) + 1
			streams = append(streams, StreamMeta{Offset: off, Length: l})
			off += l
		}
		plans := planIO(nil, streams, int64(coalesce%512))
		covered := 0
		prevEnd := int64(-1)
		for _, p := range plans {
			if p.offset <= prevEnd {
				return false // overlapping plans
			}
			prevEnd = p.offset + p.length
			for _, s := range streams[p.lo:p.hi] {
				if s.Offset < p.offset || s.Offset+s.Length > p.offset+p.length {
					return false // stream not contained
				}
				covered++
			}
		}
		return covered == len(streams)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaDecodeReleaseRoundTrip cycles stripes through the arena
// decode path — decode, compare against a plain decode, release —
// several times, so recycled buffers that leak stale rows, offsets, or
// labels across batches fail loudly.
func TestArenaDecodeReleaseRoundTrip(t *testing.T) {
	ts := buildSchema(t, 4, 4)
	rows := genRows(ts, 96, 0.6, 11)
	c := newCluster(t)
	writeFile(t, c, "f", ts, rows, WriterOptions{Flatten: true, RowsPerStripe: 32})
	r, err := OpenReader(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	proj := schema.NewProjection(1, 2, 5, 6, 9)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < r.Stripes(); i++ {
			plain, _, err := r.ReadStripe(i, proj, ReadOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pooled, _, err := r.ReadStripe(i, proj, ReadOptions{}, arena)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBatch(t, plain, pooled)
			pooled.Release()
		}
	}
}

// requireSameBatch compares two decoded batches element-wise (nil and
// empty slices compare equal).
func requireSameBatch(t testing.TB, a, b *Batch) {
	t.Helper()
	if a.Rows != b.Rows || !eqSlice(a.Labels, b.Labels) {
		t.Fatalf("rows/labels differ: %d/%d", a.Rows, b.Rows)
	}
	if len(a.Dense) != len(b.Dense) || len(a.Sparse) != len(b.Sparse) || len(a.ScoreList) != len(b.ScoreList) {
		t.Fatal("column sets differ")
	}
	for id, ca := range a.Dense {
		cb := b.Dense[id]
		if cb == nil || !eqSlice(ca.Present, cb.Present) || !eqSlice(ca.Values, cb.Values) {
			t.Fatalf("dense %d differs", id)
		}
	}
	for id, ca := range a.Sparse {
		cb := b.Sparse[id]
		if cb == nil || !eqSlice(ca.Offsets, cb.Offsets) || !eqSlice(ca.Values, cb.Values) {
			t.Fatalf("sparse %d differs", id)
		}
	}
	for id, ca := range a.ScoreList {
		cb := b.ScoreList[id]
		if cb == nil || !eqSlice(ca.Offsets, cb.Offsets) || !eqSlice(ca.Values, cb.Values) {
			t.Fatalf("score-list %d differs", id)
		}
	}
}

func eqSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamingDecodeRejectsBadRows pins the streaming column decoders'
// defensive checks: out-of-range and out-of-order row indices error
// instead of panicking or silently dropping data (the old buffered
// decoder dropped every entry after an out-of-order one).
func TestStreamingDecodeRejectsBadRows(t *testing.T) {
	mk := func(entries ...[2]uint32) []byte {
		var p payloadWriter
		p.u32(uint32(len(entries)))
		for _, e := range entries {
			p.u32(e[0]) // row
			p.u32(e[1]) // count
			for j := uint32(0); j < e[1]; j++ {
				p.i64(int64(j))
			}
		}
		return p.bytes()
	}
	arena := NewArena()
	// Out of range.
	col := arena.Sparse(4)
	if err := decodeSparseInto(mk([2]uint32{9, 1}), EncPlain, Version, 4, col); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	// Out of order.
	col = arena.Sparse(4)
	if err := decodeSparseInto(mk([2]uint32{2, 1}, [2]uint32{1, 1}), EncPlain, Version, 4, col); err == nil {
		t.Fatal("out-of-order row accepted")
	}
	// Count larger than payload.
	col = arena.Sparse(4)
	if err := decodeSparseInto(mk([2]uint32{0, 0}), EncPlain, Version, 4, col); err != nil {
		t.Fatalf("valid empty entry rejected: %v", err)
	}
	var p payloadWriter
	p.u32(1)
	p.u32(0)
	p.u32(1 << 30) // claims 2^30 values with nothing behind them
	if err := decodeSparseInto(p.bytes(), EncPlain, Version, 4, arena.Sparse(4)); err == nil {
		t.Fatal("oversized count accepted")
	}
	// Dense out of range.
	var pd payloadWriter
	pd.u32(1)
	pd.u32(7)
	pd.f32(1)
	if err := decodeDenseInto(pd.bytes(), EncPlain, 4, arena.Dense(4)); err == nil {
		t.Fatal("dense out-of-range row accepted")
	}
}

// TestReadStripeNormalizesEmptyLists pins what a present but empty
// sparse list reads as: an empty row of its column, the same as an
// absent one, in both layouts. The regular-map row data keeps the
// difference, but the columnar batch cannot hold it. Values, labels and
// non-empty lists round-trip exactly.
func TestReadStripeNormalizesEmptyLists(t *testing.T) {
	ts := buildSchema(t, 1, 1)
	s := schema.NewSample()
	s.Label = 1
	s.DenseFeatures[1] = 0.5
	s.SparseFeatures[2] = []int64{} // present but empty
	s2 := schema.NewSample()
	s2.SparseFeatures[2] = []int64{7, 8}
	c := newCluster(t)
	for _, flatten := range []bool{true, false} {
		path := fmt.Sprintf("f%v", flatten)
		writeFile(t, c, path, ts, []*schema.Sample{s, s2}, WriterOptions{Flatten: flatten, RowsPerStripe: 4})
		r, err := OpenReader(c, path)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := r.ReadStripe(0, nil, ReadOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.Rows != 2 || b.Labels[0] != 1 || !b.Dense[1].Present[0] || b.Dense[1].Values[0] != 0.5 {
			t.Fatalf("%s: row 0 = label %v, dense %+v", path, b.Labels, b.Dense[1])
		}
		col := b.Sparse[2]
		if got := col.RowValues(0); len(got) != 0 {
			t.Fatalf("%s: empty sparse list read as %v", path, got)
		}
		if got := col.MaterializedValues(nil)[col.Offsets[1]:col.Offsets[2]]; len(got) != 2 || got[0] != 7 || got[1] != 8 {
			t.Fatalf("%s: non-empty list corrupted: %v", path, got)
		}
		b.Release()
	}
}
