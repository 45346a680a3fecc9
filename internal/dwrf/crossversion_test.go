package dwrf

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// This file pins cross-version compatibility. testdata/v1_fixture.bin is
// a committed DWRF file produced by the format-v1 writer (plain stream
// encodings only) over the deterministic row set below;
// testdata/v2_fixture.bin is the same rows written by the format-v2
// writer, whose dictionary streams hold fixed-width keys and entry
// headers; testdata/v3_fixture.bin is the same rows written by the
// format-v3 writer while it still built score-list dictionaries, so its
// score-list column is a compact dictionary in every stripe, a layout only
// the decoder now knows. The rows are regenerated in-process so each
// fixture's decoded content can be checked value-for-value, and re-encoded
// with the current writer so every version's copy of the same table is
// proven decode-identical.

// fixtureSchema is the committed fixture's table schema: two dense
// features, a low-cardinality sparse feature (dictionary-friendly), an
// ascending-ID sparse feature (delta-friendly), and a low-cardinality
// score list.
func fixtureSchema() *schema.TableSchema {
	ts := schema.NewTableSchema("v1fixture")
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(ts.AddColumn(schema.Column{ID: 1, Kind: schema.Dense, Name: "d1"}))
	must(ts.AddColumn(schema.Column{ID: 2, Kind: schema.Dense, Name: "d2"}))
	must(ts.AddColumn(schema.Column{ID: 3, Kind: schema.Sparse, Name: "s_lowcard"}))
	must(ts.AddColumn(schema.Column{ID: 4, Kind: schema.Sparse, Name: "s_ascending"}))
	must(ts.AddColumn(schema.Column{ID: 5, Kind: schema.ScoreList, Name: "sl_lowcard"}))
	return ts
}

// fixtureRows regenerates the deterministic samples stored in the
// committed fixtures. Any change here invalidates them — do not edit
// without regenerating testdata/v1_fixture.bin, v2_fixture.bin and
// v3_fixture.bin with writers of those eras.
func fixtureRows() []*schema.Sample {
	rng := rand.New(rand.NewSource(42))
	rows := make([]*schema.Sample, 300)
	for i := range rows {
		s := schema.NewSample()
		s.Label = float32(i % 2)
		s.DenseFeatures[1] = float32(rng.Intn(16)) / 8
		if i%3 == 0 {
			s.DenseFeatures[2] = rng.Float32()
		}
		n := 1 + rng.Intn(6)
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64(rng.Intn(12))
		}
		s.SparseFeatures[3] = vals
		m := 2 + rng.Intn(4)
		asc := make([]int64, m)
		cur := int64(rng.Intn(100))
		for j := range asc {
			cur += 1 + int64(rng.Intn(50))
			asc[j] = cur
		}
		s.SparseFeatures[4] = asc
		if i%2 == 0 {
			k := 1 + rng.Intn(3)
			svals := make([]schema.ScoredValue, k)
			for j := range svals {
				svals[j] = schema.ScoredValue{Value: int64(rng.Intn(8)), Score: float32(rng.Intn(4))}
			}
			s.ScoreListFeatures[5] = svals
		}
		rows[i] = s
	}
	return rows
}

// writeFixtureTable writes the fixture rows through the current writer
// into a fresh cluster and returns the cluster and path.
func writeFixtureTable(opts WriterOptions) (*tectonic.Cluster, string, error) {
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		return nil, "", err
	}
	const path = "fixture.dwrf"
	w, err := NewWriter(cluster, path, fixtureSchema(), opts)
	if err != nil {
		return nil, "", err
	}
	for _, s := range fixtureRows() {
		if err := w.WriteRow(s); err != nil {
			return nil, "", err
		}
	}
	if err := w.Close(); err != nil {
		return nil, "", err
	}
	return cluster, path, nil
}

// fixtureWriterOpts is the layout the committed fixture was written
// with: flattened, 128-row stripes, default stream order.
func fixtureWriterOpts() WriterOptions {
	return WriterOptions{Flatten: true, RowsPerStripe: 128}
}

// openFixture loads the committed file of format version v into a fresh
// cluster and opens it. The fixture is a hard requirement: a missing file
// fails the test rather than skipping, so CI cannot silently lose the
// cross-version guarantee.
func openFixture(t *testing.T, v int) *Reader {
	t.Helper()
	raw, err := os.ReadFile(fmt.Sprintf("testdata/v%d_fixture.bin", v))
	if err != nil {
		t.Fatalf("committed v%d fixture must be readable (regenerate with a v%d-era writer if lost): %v", v, v, err)
	}
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	const path = "fixture.dwrf"
	if err := cluster.Create(path); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Append(path, raw); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Seal(path); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(cluster, path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func requireFixtureRows(t *testing.T, r *Reader) {
	t.Helper()
	requireReadsRows(t, r, fixtureRows(), nil, ReadOptions{})
}

// TestCrossVersionEncodingV1FixtureReads proves the current reader
// decodes a committed format-v1 file value-for-value.
func TestCrossVersionEncodingV1FixtureReads(t *testing.T) {
	r := openFixture(t, 1)
	if r.Version() != 1 {
		t.Fatalf("fixture version = %d, want 1", r.Version())
	}
	requireFixtureRows(t, r)
}

// TestCrossVersionEncodingDictFixtureReads proves the current reader
// decodes the committed format-v2 and format-v3 files value-for-value,
// through the dictionary layout of each version (v2's fixed-width, v3's
// compact), score-list dictionaries included.
func TestCrossVersionEncodingDictFixtureReads(t *testing.T) {
	for _, c := range []struct {
		version int
		encs    []StreamEncoding // each must appear in some stripe
	}{
		{2, []StreamEncoding{EncDict, EncDelta}},
		{3, []StreamEncoding{EncDict}},
	} {
		t.Run(fmt.Sprintf("v%d", c.version), func(t *testing.T) {
			r := openFixture(t, c.version)
			if r.Version() != c.version {
				t.Fatalf("fixture version = %d, want %d", r.Version(), c.version)
			}
			encs := map[StreamEncoding]bool{}
			for i, st := range r.footer.Stripes {
				for _, s := range st.Streams {
					encs[s.Encoding] = true
					if s.Kind == streamScoreList && s.Encoding != EncDict {
						t.Fatalf("stripe %d: score-list stream is %v, want a dictionary", i, s.Encoding)
					}
				}
			}
			for _, e := range c.encs {
				if !encs[e] {
					t.Fatalf("v%d fixture holds no %v stream", c.version, e)
				}
			}
			requireFixtureRows(t, r)
		})
	}
}

// TestCrossVersionEncodingReencode proves the same table re-encoded by
// the current writer — both with its encodings and pinned to plain —
// decodes identically to the v1 fixture, that the plain re-encode
// reproduces the v1 stripes bit-for-bit (equal ContentHashes, so cached
// wares stay shared), that the encodings shrink the data, and that the
// compact dictionaries store less than the v2 fixture's fixed-width ones.
func TestCrossVersionEncodingReencode(t *testing.T) {
	v1 := openFixture(t, 1)

	c, p, err := writeFixtureTable(fixtureWriterOpts())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := OpenReader(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version() != Version {
		t.Fatalf("re-encoded version = %d, want %d", cur.Version(), Version)
	}
	requireFixtureRows(t, cur)

	plainOpts := fixtureWriterOpts()
	plainOpts.PlainEncodings = true
	c3, p3, err := writeFixtureTable(plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := OpenReader(c3, p3)
	if err != nil {
		t.Fatal(err)
	}
	requireFixtureRows(t, plain)

	if v1.Stripes() != plain.Stripes() || v1.Stripes() != cur.Stripes() {
		t.Fatalf("stripe counts differ: v1 %d, plain %d, current %d", v1.Stripes(), plain.Stripes(), cur.Stripes())
	}
	for i := 0; i < v1.Stripes(); i++ {
		if v1.StripeContentHash(i) != plain.StripeContentHash(i) {
			t.Fatalf("stripe %d: plain re-encode ContentHash %x != v1 %x — plain encodings must be bit-identical to v1",
				i, plain.StripeContentHash(i), v1.StripeContentHash(i))
		}
	}

	if got, want := cur.DataBytes(), v1.DataBytes(); got >= want {
		t.Fatalf("current data bytes = %d, not smaller than v1's %d", got, want)
	}
	if got, want := cur.DataBytes(), openFixture(t, 2).DataBytes(); got >= want {
		t.Fatalf("current data bytes = %d, not smaller than the v2 fixture's %d", got, want)
	}
}
