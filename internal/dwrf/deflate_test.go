package dwrf

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"testing"
)

// This file holds the write path's deflate encoder to compress/flate's
// BestSpeed writer, the encoder it replaced: FuzzDeflate checks that the
// two write the same bytes for every input, and BenchmarkDeflateRM1Streams
// keeps the stdlib writer as the reference for the layer's speed.

// rm1Payloads returns the raw payload of every stream of one RM1 stripe
// at both sparse cardinalities: what the writer hands the encoder.
func rm1Payloads(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, s := range rm1Streams(t) {
		p, err := decompress(s.data, s.raw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(*p))
		payloadPool.put(p)
	}
	return out
}

// deflateSeeds is FuzzDeflate's corpus: every RM1 raw payload; the
// lengths at which the block rules change (empty, stored up to 16 bytes,
// Huffman-only below 128, one full block, a block and a byte, two blocks
// less a byte), cut from the RM1 payloads laid end to end; random bytes,
// which defeat matching; and 200 KB of zeros, whose matches reach back
// across block boundaries.
func deflateSeeds(t testing.TB) [][]byte {
	t.Helper()
	payloads := rm1Payloads(t)
	seeds := append([][]byte(nil), payloads...)
	var joined []byte
	for _, p := range payloads {
		joined = append(joined, p...)
	}
	for _, n := range []int{0, 1, 16, 17, 127, 128, 65535, 65536, 131071} {
		seeds = append(seeds, joined[:n])
	}
	random := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(random)
	seeds = append(seeds, random, make([]byte, 200<<10))
	return seeds
}

// stdlibDeflate is compress/flate's BestSpeed writer, reset per input.
type stdlibDeflate struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

func newStdlibDeflate(t testing.TB) *stdlibDeflate {
	s := new(stdlibDeflate)
	fw, err := flate.NewWriter(&s.buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	s.fw = fw
	return s
}

func (s *stdlibDeflate) deflate(src []byte) ([]byte, error) {
	s.buf.Reset()
	s.fw.Reset(&s.buf)
	if _, err := s.fw.Write(src); err != nil {
		return nil, err
	}
	if err := s.fw.Close(); err != nil {
		return nil, err
	}
	return s.buf.Bytes(), nil
}

// appendWriter is an io.Writer that appends to a byte slice whose
// capacity carries over between uses.
type appendWriter struct {
	buf []byte
}

func (a *appendWriter) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// The fuzz body runs one input at a time, so its encoders are reused.
var (
	fuzzDeflater deflater
	fuzzOracle   *stdlibDeflate
)

// checkDeflate fails unless deflate writes exactly what compress/flate's
// BestSpeed writer does for src, and inflate turns it back into src. It
// encodes on a deflater that has already encoded other streams, as a
// stripe encoder's has.
func checkDeflate(t testing.TB, src []byte) {
	t.Helper()
	if fuzzOracle == nil {
		fuzzOracle = newStdlibDeflate(t)
	}
	want, err := fuzzOracle.deflate(src)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	got := fuzzDeflater.deflate(bytes.Clone(prefix), src)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatal("deflate overwrote the bytes before its output")
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%d-byte input: deflate wrote %d bytes, flate %d; first difference at byte %d", len(src), len(got), len(want), at)
	}
	out := make([]byte, len(src))
	if n, err := inflate(out, got); err != nil || n != len(src) || !bytes.Equal(out, src) {
		t.Fatalf("%d-byte input: inflate of the output returned %d bytes, %v", len(src), n, err)
	}
}

func FuzzDeflate(f *testing.F) {
	for _, seed := range deflateSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkDeflate(t, src)
	})
}

// TestFuzzDeflateSeedCorpus runs the seed corpus through the fuzz body,
// so plain `go test` keeps the differential check without the fuzz
// engine.
func TestFuzzDeflateSeedCorpus(t *testing.T) {
	for _, seed := range deflateSeeds(t) {
		checkDeflate(t, seed)
	}
}

// TestDeflatePositionWrap runs multi-block inputs on deflaters whose
// position base is about to overflow: at a stream's start, where the
// match table is cleared, and after its first block, where the entries
// are shifted down with the history kept. Neither may change a byte.
func TestDeflatePositionWrap(t *testing.T) {
	// Zeros and four-letter text, which match across blocks throughout.
	text := make([]byte, 2*maxStoreBlockSize+1)
	rng := rand.New(rand.NewSource(2))
	for i := range text {
		text[i] = "acgt"[rng.Intn(4)]
	}
	inputs := [][]byte{make([]byte, 200<<10), text}
	oracle := newStdlibDeflate(t)
	for _, cur := range []int32{bufferReset - 1, bufferReset - maxMatchOffset - 2} {
		for _, src := range inputs {
			want, err := oracle.deflate(src)
			if err != nil {
				t.Fatal(err)
			}
			d := new(deflater)
			d.deflate(nil, src) // fill the table, as a used encoder's is
			d.cur = cur
			if got := d.deflate(nil, src); !bytes.Equal(got, want) {
				t.Fatalf("position base %d, %d-byte input: output differs from flate's", cur, len(src))
			}
		}
	}
}

// BenchmarkDeflateRM1Streams times the deflate layer alone over the raw
// payload of every stream of an RM1 stripe at both cardinalities (the
// streams BenchmarkInflateRM1Streams inflates), against compress/flate's
// BestSpeed writer driven the way the write path drove it (one writer,
// Reset per stream, its output appended to one buffer).
func BenchmarkDeflateRM1Streams(b *testing.B) {
	payloads := rm1Payloads(b)
	run := func(b *testing.B, deflateOne func(out, src []byte) ([]byte, error)) {
		var out []byte
		pass := func() {
			out = out[:0]
			for _, p := range payloads {
				var err error
				if out, err = deflateOne(out, p); err != nil {
					b.Fatal(err)
				}
			}
		}
		pass() // grow the output and the encoder's state: steady state from here
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		n := float64(b.N * len(payloads))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/stream")
		b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/stream")
	}
	b.Run("dwrf", func(b *testing.B) {
		var d deflater
		run(b, func(out, src []byte) ([]byte, error) {
			return d.deflate(out, src), nil
		})
	})
	b.Run("stdlib", func(b *testing.B) {
		var w appendWriter
		fw, err := flate.NewWriter(&w, flate.BestSpeed)
		if err != nil {
			b.Fatal(err)
		}
		run(b, func(out, src []byte) ([]byte, error) {
			w.buf = out
			fw.Reset(&w)
			if _, err := fw.Write(src); err != nil {
				return nil, err
			}
			err := fw.Close()
			return w.buf, err
		})
	})
}
