package experiments

import (
	"fmt"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

func init() {
	register("encodings", "Columnar stream encodings: v2 dict/RLE/delta vs v1 plain (file size and decode cost)", runEncodings)
}

// encShape is one sparse-ID distribution the encoding sweep writes.
type encShape struct {
	name string
	card uint64
	asc  bool
}

// writeEncTable generates RM1-shaped rows under the given ID
// distribution and writes them twice into one cluster — pinned to the
// v1 plain layout and with v2 encoding selection — returning both
// readers.
func writeEncTable(sh encShape) (v1, v2 *dwrf.Reader, err error) {
	spec := datagen.RM1.Scale(datagen.RM1.SimScale, 1, 1024)
	spec.SparseCardinality = sh.card
	spec.AscendingIDs = sh.asc
	rows := make([]*schema.Sample, 1024)
	gen := datagen.NewGenerator(spec, 7)
	for i := range rows {
		rows[i] = gen.Sample()
	}
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 4 << 20})
	if err != nil {
		return nil, nil, err
	}
	write := func(path string, plain bool) (*dwrf.Reader, error) {
		w, err := dwrf.NewWriter(cluster, path, spec.BuildSchema(), dwrf.WriterOptions{
			Flatten: true, RowsPerStripe: 256, PlainEncodings: plain,
		})
		if err != nil {
			return nil, err
		}
		for _, s := range rows {
			if err := w.WriteRow(s); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return dwrf.OpenReader(cluster, path)
	}
	if v1, err = write("v1.dwrf", true); err != nil {
		return nil, nil, err
	}
	if v2, err = write("v2.dwrf", false); err != nil {
		return nil, nil, err
	}
	return v1, v2, nil
}

// decodeAllStripes measures the wall time of one arena-pooled batch
// decode over every stripe, after a warm-up pass that populates the
// pools (matching a worker's steady state).
func decodeAllStripes(r *dwrf.Reader) (time.Duration, error) {
	arena := dwrf.NewArena()
	opts := dwrf.ReadOptions{CoalesceBytes: 1 << 20}
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for s := 0; s < r.Stripes(); s++ {
			batch, _, err := r.ReadStripe(s, nil, opts, arena)
			if err != nil {
				return 0, err
			}
			batch.Release()
		}
		if pass == 1 {
			return time.Since(start), nil
		}
	}
	panic("unreachable")
}

// runEncodings contrasts the v2 per-stream encodings (dictionary, RLE,
// delta — selected by exact encoded size at flush) against the v1
// plain layout over the ID distributions that trigger each encoding,
// reporting encoded data size and steady-state decode wall time.
func runEncodings() (Result, error) {
	res := Result{ID: "encodings", Title: Title("encodings")}
	shapes := []encShape{
		{name: "zipf low-cardinality", card: 512},
		{name: "ascending IDs", asc: true},
		{name: "zipf full-range"},
	}
	for _, sh := range shapes {
		v1, v2, err := writeEncTable(sh)
		if err != nil {
			return res, err
		}
		s1, s2 := v1.DataBytes(), v2.DataBytes()
		d1, err := decodeAllStripes(v1)
		if err != nil {
			return res, err
		}
		d2, err := decodeAllStripes(v2)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows,
			Row{
				Label:    sh.name + " data bytes v2/v1",
				Paper:    "<= 1",
				Measured: fmt.Sprintf("%.3f (%d/%d)", float64(s2)/float64(s1), s2, s1),
				Note:     "size-based selection never picks an encoding larger than plain",
			},
			Row{
				Label:    sh.name + " decode time v2/v1",
				Paper:    "-",
				Measured: fmt.Sprintf("%.2f (%v vs %v)", float64(d2)/float64(d1), d2.Round(time.Microsecond), d1.Round(time.Microsecond)),
			},
		)
	}
	return res, nil
}
