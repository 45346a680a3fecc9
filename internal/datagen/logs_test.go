package datagen

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsi/internal/schema"
)

// goldenFeatureLog and its bytes pin the wire layout documented in
// logs.go: header, then dense pairs and sparse lists in ascending
// feature-ID order (negative IDs first), all little-endian.
func goldenFeatureLog() *FeatureLog {
	return &FeatureLog{
		RequestID: 0x0102030405060708,
		EventTime: 0x1112131415161718,
		Dense:     map[schema.FeatureID]float32{7: 1.5, -3: -0.25},
		Sparse:    map[schema.FeatureID][]int64{9: {1, -2}, 4: {}},
	}
}

const goldenFeatureLogHex = "46" + // tag 'F'
	"0807060504030201" + // RequestID
	"1817161514131211" + // EventTime
	"02000000" + "02000000" + "02000000" + // nDense, nSparse, nValues
	"fdffffff" + "000080be" + // dense -3 = -0.25
	"07000000" + "0000c03f" + // dense 7 = 1.5
	"04000000" + "00000000" + // sparse 4: no values
	"09000000" + "02000000" + "0100000000000000" + "feffffffffffffff" // sparse 9: 1, -2

const goldenEventLogHex = "45" + "feffffffffffffff" + "01" // tag 'E', RequestID -2, engaged

func TestFeatureLogGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenFeatureLogHex)
	if err != nil {
		t.Fatal(err)
	}
	// Map iteration order is randomized per range; many encodes of one
	// value must all give the golden bytes.
	for i := 0; i < 64; i++ {
		got, err := EncodeFeatureLog(goldenFeatureLog())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %d:\n got %x\nwant %x", i, got, want)
		}
	}
	dec, err := DecodeFeatureLog(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, goldenFeatureLog()) {
		t.Fatalf("decoded golden = %+v", dec)
	}
}

func TestEventLogGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenEventLogHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeEventLog(&EventLog{RequestID: -2, Engaged: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
	dec, err := DecodeEventLog(want)
	if err != nil {
		t.Fatal(err)
	}
	if *dec != (EventLog{RequestID: -2, Engaged: true}) {
		t.Fatalf("decoded golden = %+v", dec)
	}
}

// TestLogRecordRoundTripEdges covers the shapes the generator never
// emits but the codec must carry: empty and nil maps, an empty sparse
// list, EventTime zero, negative IDs and values, extreme floats.
func TestLogRecordRoundTripEdges(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001)
	logs := map[string]*FeatureLog{
		"nil maps":   {RequestID: 1},
		"empty maps": {RequestID: 2, Dense: map[schema.FeatureID]float32{}, Sparse: map[schema.FeatureID][]int64{}},
		"empty list": {RequestID: 3, EventTime: 5, Sparse: map[schema.FeatureID][]int64{8: {}, 9: nil}},
		"negatives": {
			RequestID: math.MinInt64, EventTime: -1,
			Dense:  map[schema.FeatureID]float32{math.MinInt32: -1, -1: float32(math.Inf(-1)), 0: 0, math.MaxInt32: math.MaxFloat32},
			Sparse: map[schema.FeatureID][]int64{-7: {math.MinInt64, -1, 0, math.MaxInt64}, 7: {42}},
		},
		"nan": {RequestID: 4, Dense: map[schema.FeatureID]float32{1: nan}},
	}
	for name, fl := range logs {
		data, err := EncodeFeatureLog(fl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeFeatureLog(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.RequestID != fl.RequestID || got.EventTime != fl.EventTime {
			t.Fatalf("%s: header = %d/%d, want %d/%d", name, got.RequestID, got.EventTime, fl.RequestID, fl.EventTime)
		}
		if len(got.Dense) != len(fl.Dense) || len(got.Sparse) != len(fl.Sparse) {
			t.Fatalf("%s: %d dense %d sparse, want %d and %d", name, len(got.Dense), len(got.Sparse), len(fl.Dense), len(fl.Sparse))
		}
		for id, v := range fl.Dense {
			if g, ok := got.Dense[id]; !ok || math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("%s: dense %d = %v (present %v), want %v", name, id, g, ok, v)
			}
		}
		for id, vals := range fl.Sparse {
			g, ok := got.Sparse[id]
			if !ok || len(g) != len(vals) {
				t.Fatalf("%s: sparse %d = %v (present %v), want %v", name, id, g, ok, vals)
			}
			for k := range vals {
				if g[k] != vals[k] {
					t.Fatalf("%s: sparse %d = %v, want %v", name, id, g, vals)
				}
			}
		}
		again, err := EncodeFeatureLog(got)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encode differs (err %v)", name, err)
		}
	}
	for _, ev := range []EventLog{{}, {RequestID: -9}, {RequestID: math.MaxInt64, Engaged: true}} {
		data, err := EncodeEventLog(&ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEventLog(data)
		if err != nil || *got != ev {
			t.Fatalf("event %+v round-tripped to %+v (err %v)", ev, got, err)
		}
	}
}

// TestDecodedSparseListsDoNotAlias: the lists share one backing array,
// so each must be capped — growing one may not write into its neighbour.
func TestDecodedSparseListsDoNotAlias(t *testing.T) {
	data, err := EncodeFeatureLog(&FeatureLog{Sparse: map[schema.FeatureID][]int64{1: {10, 11}, 2: {20}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFeatureLog(data)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Sparse[1], 99)
	if got.Sparse[2][0] != 20 {
		t.Fatalf("append to list 1 overwrote list 2: %v", got.Sparse[2])
	}
}

func TestLogRecordDecodeRejects(t *testing.T) {
	valid, _ := hex.DecodeString(goldenFeatureLogHex)
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":         {nil, "truncated"},
		"garbage":       {[]byte("garbage"), "truncated"},
		"event tag":     {mutate(func(b []byte) []byte { b[0] = tagEventLog; return b }), "bad tag"},
		"trailing byte": {append(bytes.Clone(valid), 0), "trailing"},
		"dense count":   {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[17:], math.MaxUint32); return b }), "truncated"},
		"sparse count":  {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[21:], math.MaxUint32); return b }), "truncated"},
		"value count":   {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[25:], math.MaxUint32); return b }), "truncated"},
		"list count": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[featureLogHeaderLen+16+4:], math.MaxUint32)
			return b
		}), "claims"},
		"short lists":    {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[featureLogHeaderLen+16+12:], 1); return b }), "header says"},
		"dense order":    {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[featureLogHeaderLen+8:], 0x80000000); return b }), "out of order"},
		"sparse repeats": {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[featureLogHeaderLen+16+8:], 4); return b }), "out of order"},
	}
	for name, c := range cases {
		if _, err := DecodeFeatureLog(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
	ev, _ := hex.DecodeString(goldenEventLogHex)
	for name, data := range map[string][]byte{
		"empty":        nil,
		"garbage":      []byte("garbage"),
		"feature tag":  append([]byte{tagFeatureLog}, ev[1:]...),
		"trailing":     append(bytes.Clone(ev), 0),
		"engaged byte": append(bytes.Clone(ev[:9]), 2),
	} {
		if _, err := DecodeEventLog(data); err == nil {
			t.Fatalf("event %s accepted", name)
		}
	}
}

// logSeedCorpus is valid plus every truncation of it, plus hostile
// counts: each u32 count field set to 2^32-1.
func logSeedCorpus(validHex string, countOffsets ...int) [][]byte {
	valid, err := hex.DecodeString(validHex)
	if err != nil {
		panic(err)
	}
	seeds := [][]byte{valid, append(bytes.Clone(valid), 0), []byte("garbage")}
	for i := range valid {
		seeds = append(seeds, valid[:i])
	}
	for _, off := range countOffsets {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], math.MaxUint32)
		seeds = append(seeds, b)
	}
	for _, tag := range []byte{0, tagFeatureLog, tagEventLog, 0xff} {
		b := bytes.Clone(valid)
		b[0] = tag
		seeds = append(seeds, b)
	}
	return seeds
}

func featureLogSeeds() [][]byte {
	// The three header counts and both per-list counts.
	return logSeedCorpus(goldenFeatureLogHex, 17, 21, 25, featureLogHeaderLen+16+4, featureLogHeaderLen+16+12)
}

func eventLogSeeds() [][]byte { return logSeedCorpus(goldenEventLogHex) }

// fuzzFeatureLogDecode: a record either fails to decode or decodes to a
// value no larger than its bytes allow that encodes back to exactly
// those bytes.
func fuzzFeatureLogDecode(t testing.TB, data []byte) {
	t.Helper()
	f, err := DecodeFeatureLog(data)
	if err != nil {
		return
	}
	values := 0
	for _, vals := range f.Sparse {
		values += len(vals)
	}
	if got := featureLogHeaderLen + 8*(len(f.Dense)+len(f.Sparse)+values); got != len(data) {
		t.Fatalf("decoded %d dense, %d sparse, %d values (%d bytes' worth) from %d bytes", len(f.Dense), len(f.Sparse), values, got, len(data))
	}
	again, err := EncodeFeatureLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted record is not canonical:\n in %x\nout %x", data, again)
	}
}

func fuzzEventLogDecode(t testing.TB, data []byte) {
	t.Helper()
	e, err := DecodeEventLog(data)
	if err != nil {
		return
	}
	again, err := EncodeEventLog(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted record is not canonical:\n in %x\nout %x", data, again)
	}
}

func FuzzFeatureLogDecode(f *testing.F) {
	for _, seed := range featureLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzFeatureLogDecode(t, data) })
}

func FuzzEventLogDecode(f *testing.F) {
	for _, seed := range eventLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzEventLogDecode(t, data) })
}

// TestFuzzLogDecodeSeedCorpus runs both seed corpora through the fuzz
// bodies, so plain `go test` and the race-enabled CI job keep the
// coverage without the fuzz engine; only the unmodified record may
// decode.
func TestFuzzLogDecodeSeedCorpus(t *testing.T) {
	// Seed 0 is the record itself (the corpus also re-stamps its own tag).
	feats := featureLogSeeds()
	for i, seed := range feats {
		fuzzFeatureLogDecode(t, seed)
		if _, err := DecodeFeatureLog(seed); (err == nil) != bytes.Equal(seed, feats[0]) {
			t.Fatalf("feature seed %d (%x): err = %v", i, seed, err)
		}
	}
	events := eventLogSeeds()
	for i, seed := range events {
		fuzzEventLogDecode(t, seed)
		if _, err := DecodeEventLog(seed); (err == nil) != bytes.Equal(seed, events[0]) {
			t.Fatalf("event seed %d (%x): err = %v", i, seed, err)
		}
	}
}
