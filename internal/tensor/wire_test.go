package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dsi/internal/schema"
)

// wireTestBatch builds a deterministic batch shaped like a real session
// delivery: dense matrix, labels, and two CSR sparse features with
// varying row lengths (including empty rows).
func wireTestBatch(rows, cols int, seed int64) *Batch {
	rng := rand.New(rand.NewSource(seed))
	b := &Batch{
		Rows:   rows,
		Labels: make([]float32, rows),
		Dense:  &Dense2D{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)},
	}
	for c := 0; c < cols; c++ {
		b.DenseFeatureIDs = append(b.DenseFeatureIDs, schema.FeatureID(c+1))
	}
	for i := range b.Labels {
		b.Labels[i] = rng.Float32()
	}
	for i := range b.Dense.Data {
		b.Dense.Data[i] = rng.Float32()
	}
	for f := 0; f < 2; f++ {
		st := &SparseTensor{Feature: schema.FeatureID(100 + f), Offsets: make([]int32, 1, rows+1)}
		for r := 0; r < rows; r++ {
			n := rng.Intn(5)
			for j := 0; j < n; j++ {
				st.Indices = append(st.Indices, rng.Int63n(1<<20))
			}
			st.Offsets = append(st.Offsets, int32(len(st.Indices)))
		}
		b.Sparse = append(b.Sparse, st)
	}
	return b
}

// batchesEqual compares two batches structurally, floats by their bits
// (a NaN label survives the codec as the same NaN).
func batchesEqual(a, b *Batch) bool {
	if a.Rows != b.Rows || len(a.DenseFeatureIDs) != len(b.DenseFeatureIDs) ||
		len(a.Labels) != len(b.Labels) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for i := range a.DenseFeatureIDs {
		if a.DenseFeatureIDs[i] != b.DenseFeatureIDs[i] {
			return false
		}
	}
	for i := range a.Labels {
		if math.Float32bits(a.Labels[i]) != math.Float32bits(b.Labels[i]) {
			return false
		}
	}
	if (a.Dense == nil) != (b.Dense == nil) {
		return false
	}
	if a.Dense != nil {
		if a.Dense.Rows != b.Dense.Rows || a.Dense.Cols != b.Dense.Cols || len(a.Dense.Data) != len(b.Dense.Data) {
			return false
		}
		for i := range a.Dense.Data {
			if math.Float32bits(a.Dense.Data[i]) != math.Float32bits(b.Dense.Data[i]) {
				return false
			}
		}
	}
	for i := range a.Sparse {
		sa, sb := a.Sparse[i], b.Sparse[i]
		if sa.Feature != sb.Feature || len(sa.Offsets) != len(sb.Offsets) || len(sa.Indices) != len(sb.Indices) {
			return false
		}
		for j := range sa.Offsets {
			if sa.Offsets[j] != sb.Offsets[j] {
				return false
			}
		}
		for j := range sa.Indices {
			if sa.Indices[j] != sb.Indices[j] {
				return false
			}
		}
	}
	return true
}

func TestWireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *Batch
	}{
		{"typical", wireTestBatch(64, 3, 1)},
		{"single-row", wireTestBatch(1, 1, 2)},
		{"no-dense-matrix", &Batch{Rows: 4, Labels: make([]float32, 4),
			Sparse: []*SparseTensor{{Feature: 9, Offsets: []int32{0, 1, 1, 2, 4}, Indices: []int64{5, -7, 1 << 40, 0}}}}},
		{"zero-rows", &Batch{Rows: 0, Dense: &Dense2D{}, DenseFeatureIDs: nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := tc.b.AppendBinary(nil)
			if len(frame) != tc.b.EncodedSize() {
				t.Fatalf("encoded %d bytes, EncodedSize says %d", len(frame), tc.b.EncodedSize())
			}
			got, n, err := DecodeBinary(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frame) {
				t.Fatalf("consumed %d of %d bytes", n, len(frame))
			}
			if !batchesEqual(tc.b, got) {
				t.Fatalf("round trip diverged:\n in  %+v\n out %+v", tc.b, got)
			}
			// The content digest — what the e2e tests assert on — must
			// also survive the codec.
			want, have := NewContentSum(), NewContentSum()
			want.AddBatch(tc.b)
			have.AddBatch(got)
			if !want.Equal(have) {
				t.Fatal("content sums diverge across round trip")
			}
			got.Release()
		})
	}
}

func TestWireRoundTripConcatenatedFrames(t *testing.T) {
	// A streaming transport reads frames back to back from one buffer;
	// each decode must consume exactly its own frame.
	a, b := wireTestBatch(16, 2, 3), wireTestBatch(8, 2, 4)
	buf := a.AppendBinary(nil)
	buf = b.AppendBinary(buf)
	gotA, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, m, err := DecodeBinary(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(buf) {
		t.Fatalf("frames consumed %d+%d of %d bytes", n, m, len(buf))
	}
	if !batchesEqual(a, gotA) || !batchesEqual(b, gotB) {
		t.Fatal("concatenated frames diverged")
	}
	gotA.Release()
	gotB.Release()
}

func TestWireDecodeTruncated(t *testing.T) {
	frame := wireTestBatch(32, 2, 5).AppendBinary(nil)
	for i := 0; i < len(frame); i++ {
		if b, _, err := DecodeBinary(frame[:i]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", i, len(frame))
		} else if b != nil {
			t.Fatalf("failed decode returned a batch at %d bytes", i)
		}
	}
}

func TestWireDecodeCorrupt(t *testing.T) {
	base := wireTestBatch(8, 2, 6).AppendBinary(nil)
	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), base...)
		mutate(c)
		return c
	}
	cases := map[string][]byte{
		"bad-magic": corrupt(func(c []byte) { c[0] ^= 0xff }),
		"oversized-frame-len": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[4:], uint32(len(c))+100)
		}),
		"undersized-frame-len": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[4:], uint32(len(c))-8)
		}),
		"label-count-mismatch": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[16:], 3) // nLabels != rows
		}),
		"huge-dense-count": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[12:], 1<<30) // nDense
		}),
		"bad-has-dense": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[20:], 7)
		}),
		"retired-frame-magic": corrupt(func(c []byte) { c[3] = '1' }), // the retired first version
	}
	// The first sparse tensor's width byte follows its feature ID and
	// nIndices; its indices are below 2^20, so 3 bytes wide.
	wpos := frameHeaderLen + 4*(2+8+16) + 8
	if base[wpos] != 3 {
		t.Fatalf("width byte at %d is %d, want 3", wpos, base[wpos])
	}
	for w, name := range map[byte]string{0: "width-0", 9: "width-9", 4: "width-disagrees-with-length", 2: "width-too-narrow-for-length"} {
		cases[name] = corrupt(func(c []byte) { c[wpos] = w })
	}
	// A well-formed frame whose first tensor stores its indices one byte
	// wider than they need.
	wide := wireTestBatch(8, 2, 6)
	wide.Sparse = wide.Sparse[:1]
	frame := wide.AppendBinary(nil)
	head := append([]byte(nil), frame[:wpos]...)
	head = append(head, 4)
	head = append(head, frame[wpos+1:wpos+1+4*9]...)
	for _, idx := range wide.Sparse[0].Indices {
		head = binary.LittleEndian.AppendUint32(head, uint32(idx))
	}
	binary.LittleEndian.PutUint32(head[4:], uint32(len(head)))
	cases["width-wider-than-needed"] = head
	for name, data := range cases {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestReleaseIsSafeForUnpooledBatches(t *testing.T) {
	b := wireTestBatch(4, 1, 7)
	labels := b.Labels
	b.Release() // must be a no-op: b did not come from DecodeBinary
	if b.Labels == nil || &b.Labels[0] != &labels[0] {
		t.Fatal("Release mutated an unpooled batch")
	}
	frame := b.AppendBinary(nil)
	dec, _, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec.Release()
	dec.Release() // double release must be safe
	if dec.Labels != nil || dec.Sparse != nil || dec.Dense != nil {
		t.Fatal("Release left slices attached")
	}
}

func FuzzBatchDecode(f *testing.F) {
	f.Add(wireTestBatch(16, 2, 1).AppendBinary(nil))
	f.Add(wireTestBatch(1, 0, 2).AppendBinary(nil))
	f.Add((&Batch{Rows: 2, Labels: []float32{1, 2}}).AppendBinary(nil))
	f.Add([]byte("TBF2garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := DecodeBinary(data)
		if err != nil {
			if b != nil {
				t.Fatal("error decode returned a batch")
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// One encoding per batch: an accepted frame is exactly as long as
		// the batch's own encoding.
		if b.EncodedSize() != n {
			t.Fatalf("accepted a %d-byte frame whose batch encodes in %d", n, b.EncodedSize())
		}
		// A successful decode must be structurally sound: re-encoding it
		// and decoding again must reproduce it without panicking, and
		// the digest path must be safe to run.
		sum := NewContentSum()
		sum.AddBatch(b)
		_ = b.SizeBytes()
		re := b.AppendBinary(nil)
		b2, _, err := DecodeBinary(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !batchesEqual(b, b2) {
			t.Fatal("re-decode diverged")
		}
		b2.Release()
		b.Release()
	})
}

// TestFuzzBatchDecodeSeeds holds the committed seed corpus to what each
// seed is for: the well-formed TBF2 frames decode, and each hostile one
// fails at the check it was made for rather than at the magic.
func TestFuzzBatchDecodeSeeds(t *testing.T) {
	want := map[string]string{
		"seed_full_batch":              "",
		"seed_nan_label":               "",
		"seed_labels_only":             "",
		"seed_sparse_only":             "",
		"seed_empty":                   "truncated",
		"seed_bad_magic":               "bad frame magic",
		"seed_corrupt_rows":            "labels for",
		"seed_truncated":               "frame length",
		"seed_width_zero":              "index width 0",
		"seed_width_nine":              "index width 9",
		"seed_width_wider_than_needed": "whose largest needs",
		"seed_width_length_mismatch":   "sparse indices",
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzBatchDecode/*")
	if err != nil || len(files) != len(want) {
		t.Fatalf("%d seed files (%v), want %d", len(files), err, len(want))
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-[]byte fuzz seed", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		name := filepath.Base(file)
		wantErr, known := want[name]
		if !known {
			t.Fatalf("%s: a seed this test does not know", name)
		}
		b, _, err := DecodeBinary([]byte(data))
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("%s: %v, want a decode", name, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: error %v, want one naming %q", name, err, wantErr)
		}
		b.Release()
	}
}

func TestWireFrameBufPool(t *testing.T) {
	b := wireTestBatch(8, 2, 9)
	buf := GetFrameBuf()
	buf = b.AppendBinary(buf)
	if !bytes.Equal(buf, b.AppendBinary(nil)) {
		t.Fatal("pooled encode differs from fresh encode")
	}
	PutFrameBuf(buf)
	PutFrameBuf(nil) // must not panic
}
