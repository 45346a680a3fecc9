package dwrf

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dsi/internal/schema"
)

// fuzzRows is the fixed row count every fuzzed decode runs against;
// payloads claiming more rows must error, never panic or overrun.
const fuzzRows = 8

// fuzzSeedPayloads produces one valid payload per (kind, encoding)
// pair by running the real stripe encoder over a small crafted stripe
// (its dictionary streams are format v3's compact ones), plus hand-built
// malformed vectors for the validation paths: v2 fixed-width ones below
// and the compact dictionary ones of compactDictHostiles. The score-list
// dictionary pair, which no writer emits any more, is the committed
// corpus file scoreListDictSeed.
func fuzzSeedPayloads() [][]byte {
	rows := make([]*schema.Sample, fuzzRows)
	for i := range rows {
		s := schema.NewSample()
		s.Label = float32(i % 2)
		if i < fuzzRows-2 {
			s.DenseFeatures[1] = float32(i) // one presence run (RLE-friendly)
		}
		// Low cardinality (dict-friendly).
		s.SparseFeatures[2] = []int64{int64(i % 3), 7, int64(i % 3)}
		// Long, strictly ascending, distinct lists (delta-friendly: a
		// dictionary would need a key and a 2-byte index per value).
		asc := make([]int64, 40)
		for j := range asc {
			asc[j] = int64(1000*i + 3*j)
		}
		s.SparseFeatures[3] = asc
		s.ScoreListFeatures[4] = []schema.ScoredValue{{Value: int64(i % 2), Score: 0.5}}
		rows[i] = s
	}
	var enc stripeEncoder
	var seeds [][]byte
	// add(want) keeps a payload of encoding want, so the corpus cannot
	// silently lose a (kind, encoding) pair.
	add := func(want StreamEncoding) func([]byte, StreamEncoding) {
		return func(p []byte, got StreamEncoding) {
			if got != want {
				panic(fmt.Sprintf("fuzz seed is %v, want %v", got, want))
			}
			seeds = append(seeds, append([]byte(nil), p...))
		}
	}
	// scoreList reports enc as p's encoding only if p decodes under it to
	// the rows' score lists.
	scoreList := func(p []byte, enc StreamEncoding) ([]byte, StreamEncoding) {
		lc := ScoreListColumn{Offsets: make([]int32, fuzzRows+1)}
		if decodeScoreListInto(p, enc, Version, fuzzRows, &lc) != nil {
			return p, encMax
		}
		for i, r := range rows {
			if !slices.Equal(lc.RowValues(i), r.ScoreListFeatures[4]) {
				return p, encMax
			}
		}
		return p, enc
	}
	add(EncRLE)(enc.encodeDense(rows, 1, false))
	add(EncPlain)(enc.encodeDense(rows, 1, true))
	add(EncDict)(enc.encodeSparse(rows, 2, false))
	add(EncDelta)(enc.encodeSparse(rows, 3, false))
	add(EncPlain)(enc.encodeSparse(rows, 2, true))
	add(EncDict)(scoreList(readCorpusFile(scoreListDictSeed), EncDict))
	add(EncPlain)(scoreList(enc.encodeScoreList(rows, 4), EncPlain))
	seeds = append(seeds, enc.encodeLabels(rows))

	// Malformed: truncated header, out-of-order rows, row beyond stripe,
	// dict index past the dictionary, non-ascending delta, overlapping
	// RLE runs, giant claimed counts.
	seeds = append(seeds,
		[]byte{},
		[]byte{1, 2, 3},
		binary.LittleEndian.AppendUint32(nil, 1<<30),
		func() []byte { // dense RLE with runs past the row count
			b := binary.LittleEndian.AppendUint32(nil, 2) // count
			b = binary.LittleEndian.AppendUint32(b, 1)    // runs
			b = binary.LittleEndian.AppendUint32(b, 7)    // start
			b = binary.LittleEndian.AppendUint32(b, 5)    // len > rows-start
			return b
		}(),
		func() []byte { // dict sparse with an index >= dictLen
			b := binary.LittleEndian.AppendUint32(nil, 1) // entries
			b = binary.LittleEndian.AppendUint32(b, 1)    // dictLen
			b = binary.LittleEndian.AppendUint64(b, 42)   // dict[0]
			b = binary.LittleEndian.AppendUint32(b, 0)    // row
			b = binary.LittleEndian.AppendUint32(b, 1)    // n
			return append(b, 9)                           // idx 9 out of range
		}(),
	)
	for _, h := range compactDictHostiles() {
		seeds = append(seeds, h.payload)
	}
	return seeds
}

// scoreListDictSeed is the score-list stream the format-v3 writer wrote
// for fuzzSeedPayloads' rows while it still built score-list
// dictionaries: a compact dictionary of the pairs (0, 0.5) and (1, 0.5).
const scoreListDictSeed = "testdata/fuzz/FuzzStripeStreamDecode/scorelist-dict-v3"

// readCorpusFile returns the one []byte value of a committed fuzz corpus
// file (the "go test fuzz v1" format), panicking if it holds anything
// else.
func readCorpusFile(path string) []byte {
	raw, err := os.ReadFile(path)
	if err == nil {
		lit := strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		var s string
		if s, err = strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
			return []byte(s)
		}
	}
	panic(fmt.Sprintf("%s: not a one-[]byte fuzz corpus file: %v", path, err))
}

// fuzzDecodeAll throws the payload at every decoder under every
// encoding it accepts. Decoders must either succeed with a structurally
// sound column or return an error — never panic, never allocate
// unboundedly from claimed lengths.
func fuzzDecodeAll(t testing.TB, data []byte) {
	t.Helper()
	for enc := StreamEncoding(0); enc < encMax; enc++ {
		// Decoders write into pre-sized columns, exactly as the arena
		// hands them to decodeStripeBatch.
		dc := DenseColumn{Present: make([]bool, fuzzRows), Values: make([]float32, fuzzRows)}
		_ = decodeDenseInto(data, enc, fuzzRows, &dc)
		// Each file version's dictionary layout: v2's fixed width, v3's
		// compact one.
		for _, version := range []int{2, Version} {
			sc := SparseColumn{Offsets: make([]int32, fuzzRows+1)}
			if err := decodeSparseInto(data, enc, version, fuzzRows, &sc); err == nil {
				checkSparseShape(t, enc, &sc)
			}
			lc := ScoreListColumn{Offsets: make([]int32, fuzzRows+1)}
			if err := decodeScoreListInto(data, enc, version, fuzzRows, &lc); err == nil {
				if int(lc.Offsets[fuzzRows]) != len(lc.Values) {
					t.Fatalf("scorelist %v: inconsistent offsets", enc)
				}
			}
		}
	}
	if labels, err := decodeLabels(data, nil); err == nil && len(labels) > len(data) {
		t.Fatalf("labels: %d decoded from %d bytes", len(labels), len(data))
	}
	_, _ = decodeRowData(data)
}

func checkSparseShape(t testing.TB, enc StreamEncoding, c *SparseColumn) {
	t.Helper()
	if int(c.Offsets[fuzzRows]) != len(c.Values) {
		t.Fatalf("sparse %v: inconsistent offsets", enc)
	}
	for i := 0; i < fuzzRows; i++ {
		if c.Offsets[i] > c.Offsets[i+1] {
			t.Fatalf("sparse %v: offsets not monotonic at %d", enc, i)
		}
	}
	if c.IsDict() {
		d := int64(len(c.Dict))
		for _, idx := range c.Values {
			if idx < 0 || idx >= d {
				t.Fatalf("sparse %v: dict index %d out of range %d", enc, idx, d)
			}
		}
	}
}

func FuzzStripeStreamDecode(f *testing.F) {
	for _, seed := range fuzzSeedPayloads() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecodeAll(t, data)
	})
}

// TestFuzzStripeStreamDecodeSeedCorpus runs the whole seed corpus
// through the fuzz body deterministically, so plain `go test` (and the
// race-enabled CI job) keeps the coverage without the fuzz engine.
func TestFuzzStripeStreamDecodeSeedCorpus(t *testing.T) {
	for i, seed := range fuzzSeedPayloads() {
		i, seed := i, seed
		t.Run("", func(t *testing.T) {
			_ = i
			fuzzDecodeAll(t, seed)
		})
	}
}
