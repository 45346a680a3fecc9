package dsi_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// decodeBenchTable writes a 2048-row flattened table of 8 sparse + 2
// dense features whose sparse IDs follow the given shape, and returns
// an open reader, the file's data size, and the backing cluster (so
// fault-path benches can install schedules on it).
//
// card > 0 draws IDs uniformly from [0, card) — low values produce the
// dictionary-eligible columns production sees on user/ad ID features
// after enumeration, high values defeat every encoding. ascending
// emits strictly increasing IDs (cumulative gaps), the shape delta
// encoding targets.
func decodeBenchTable(b *testing.B, card int64, ascending, plain bool) (*dwrf.Reader, int64, *tectonic.Cluster) {
	b.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	ts := schema.NewTableSchema("dec")
	for i := 1; i <= 2; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Dense, Name: fmt.Sprintf("d%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 3; i <= 10; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Sparse, Name: fmt.Sprintf("s%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	w, err := dwrf.NewWriter(cluster, "dec", ts, dwrf.WriterOptions{
		Flatten: true, RowsPerStripe: 512, PlainEncodings: plain,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 2048; r++ {
		s := schema.NewSample()
		s.DenseFeatures[1] = rng.Float32()
		s.DenseFeatures[2] = float32(r % 8)
		for i := 3; i <= 10; i++ {
			vals := make([]int64, 8)
			if ascending {
				cur := int64(rng.Intn(1000))
				for j := range vals {
					cur += 1 + int64(rng.Intn(500))
					vals[j] = cur
				}
			} else {
				for j := range vals {
					vals[j] = rng.Int63n(card)
				}
			}
			s.SparseFeatures[schema.FeatureID(i)] = vals
		}
		if err := w.WriteRow(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := dwrf.OpenReader(cluster, "dec")
	if err != nil {
		b.Fatal(err)
	}
	return r, r.DataBytes(), cluster
}

// BenchmarkStripeDecode sweeps the v2 stream encodings against the v1
// plain layout over the shapes that trigger them: low-cardinality IDs
// (dictionary), strictly ascending IDs (delta), and full-range IDs
// (plain wins, v2 must not regress). file_bytes reports the encoded
// data size so the compression side of the trade shows up next to the
// decode time.
func BenchmarkStripeDecode(b *testing.B) {
	shapes := []struct {
		name      string
		card      int64
		ascending bool
	}{
		{"lowcard64", 64, false},
		{"card4k", 4096, false},
		{"ascending", 0, true},
		{"highcard", 1 << 62, false},
	}
	for _, sh := range shapes {
		for _, plain := range []bool{false, true} {
			enc := "v2"
			if plain {
				enc = "plain"
			}
			b.Run(sh.name+"/"+enc, func(b *testing.B) {
				r, size, _ := decodeBenchTable(b, sh.card, sh.ascending, plain)
				arena := dwrf.NewArena()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s := 0; s < r.Stripes(); s++ {
						batch, _, err := r.ReadStripeBatchArena(s, nil, dwrf.ReadOptions{CoalesceBytes: 1 << 20}, arena)
						if err != nil {
							b.Fatal(err)
						}
						batch.Release()
					}
				}
				// ResetTimer discards user metrics, so report after the loop.
				b.ReportMetric(float64(size), "file_bytes")
			})
		}
	}
}
