package dwrf

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// This file holds the read path's inflate decoder to compress/flate, the
// oracle it replaced: FuzzInflate checks that the two agree on every
// input, and BenchmarkInflateRM1Streams keeps the stdlib decoder as the
// reference for the layer's speed. compress/flate's reader appears in no
// other file.

// rm1Spec is the benchmark's data shape: RM1 at 1 % of its stored
// features (121 dense + 18 sparse), sparse IDs drawn from card values
// (0: the default space, which stays on the plain and delta encodings;
// 4096: dictionary-encoded).
func rm1Spec(card uint64) datagen.DatasetSpec {
	spec := datagen.RM1.Scale(0.01, 1, 0)
	spec.SparseCardinality = card
	return spec
}

// writeRM1 writes stripes 256-row stripes of rm1Spec(card) and opens them.
func writeRM1(t testing.TB, card uint64, stripes int) *Reader {
	t.Helper()
	spec := rm1Spec(card)
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(cluster, "rm1", spec.BuildSchema(), WriterOptions{Flatten: true, RowsPerStripe: 256})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.NewGenerator(spec, int64(card)+1)
	for i := 0; i < stripes*256; i++ {
		if err := w.WriteRow(gen.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(cluster, "rm1")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// rm1Projection is the benchmark's session projection: the 12 most
// popular dense and the 6 most popular sparse features.
func rm1Projection() *schema.Projection {
	spec := rm1Spec(0)
	gen := datagen.NewGenerator(spec, 0)
	top := func(lo, hi, n int) []schema.FeatureID {
		var ids []schema.FeatureID
		for id := lo; id <= hi; id++ {
			ids = append(ids, schema.FeatureID(id))
		}
		sort.SliceStable(ids, func(i, j int) bool { return gen.PopularityRank(ids[i]) < gen.PopularityRank(ids[j]) })
		return ids[:n]
	}
	dense := top(1, spec.DenseFeats, 12)
	sparse := top(spec.DenseFeats+1, spec.DenseFeats+spec.SparseFeats, 6)
	return schema.NewProjection(append(dense, sparse...)...)
}

// rm1Stream is one stream as decompress sees it: decrypted stored bytes
// and the recorded inflated length.
type rm1Stream struct {
	data []byte
	raw  int64
}

// rm1Streams returns every stream of one RM1 stripe at both sparse
// cardinalities (280 streams).
func rm1Streams(t testing.TB) []rm1Stream {
	t.Helper()
	var out []rm1Stream
	for _, card := range []uint64{0, 4096} {
		r := writeRM1(t, card, 1)
		for _, s := range r.footer.Stripes[0].Streams {
			data, _, err := r.cluster.ReadAt(r.path, s.Offset, s.Length)
			if err != nil {
				t.Fatal(err)
			}
			if err := cryptStream(data, s.Offset); err != nil {
				t.Fatal(err)
			}
			out = append(out, rm1Stream{data: data, raw: s.RawLength})
		}
	}
	return out
}

// bitWriter packs DEFLATE fields least significant bit first, for seeds
// no encoder would write.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which DEFLATE packs most significant bit
// first.
func (w *bitWriter) code(codes []uint16, lens []uint8, sym int) {
	n := lens[sym]
	w.bits(uint64(bits.Reverse16(codes[sym])>>(16-n)), uint(n))
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonicalCodes assigns the canonical Huffman codes of RFC 1951 §3.2.2.
func canonicalCodes(lens []uint8) []uint16 {
	var count, next [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	for n, code := 1, 0; n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint16, len(lens))
	for s, n := range lens {
		if n > 0 {
			codes[s] = uint16(next[n])
			next[n]++
		}
	}
	return codes
}

// clSym is one code-length symbol of a dynamic header, with the value of
// its extra bits (16: 2 bits, 17: 3, 18: 7).
type clSym struct{ sym, extra uint8 }

// dynamicHeader writes a final dynamic block's header: HLIT and HDIST
// from nlit and ndist, unchecked, then syms through the code-length code
// clens.
func (w *bitWriter) dynamicHeader(nlit, ndist int, clens []uint8, syms []clSym) {
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint64(nlit-257), 5)
	w.bits(uint64(ndist-1), 5)
	w.bits(19-4, 4)
	for _, s := range codeOrder {
		w.bits(uint64(clens[s]), 3)
	}
	codes := canonicalCodes(clens)
	extra := map[uint8]uint{16: 2, 17: 3, 18: 7}
	for _, s := range syms {
		w.code(codes, clens, int(s.sym))
		if n := extra[s.sym]; n > 0 {
			w.bits(uint64(s.extra), n)
		}
	}
}

// plainLengths is a code-length code giving lengths 0..15 four bits
// each, and the symbols that send lens through it one by one.
func plainLengths(lens []uint8) ([]uint8, []clSym) {
	clens := make([]uint8, 19)
	for s := 0; s < 16; s++ {
		clens[s] = 4
	}
	syms := make([]clSym, len(lens))
	for i, n := range lens {
		syms[i] = clSym{sym: n}
	}
	return clens, syms
}

// dynamicBlock writes a final dynamic block with the given code lengths
// and returns the writer and the two codes, ready for the block's data.
func dynamicBlock(litLens, distLens []uint8) (*bitWriter, []uint16, []uint16) {
	w := new(bitWriter)
	clens, syms := plainLengths(append(append([]uint8(nil), litLens...), distLens...))
	w.dynamicHeader(len(litLens), len(distLens), clens, syms)
	return w, canonicalCodes(litLens), canonicalCodes(distLens)
}

// craftedSeeds are the corner cases of the format no encoder emits.
func craftedSeeds() [][]byte {
	var seeds [][]byte

	// A literal-only block whose distance tree is empty: legal.
	lit := make([]uint8, 257)
	lit['a'], lit[256] = 1, 1
	w, lc, _ := dynamicBlock(lit, []uint8{0})
	for range 3 {
		w.code(lc, lit, 'a')
	}
	w.code(lc, lit, 256)
	seeds = append(seeds, w.bytes())

	// The degenerate distance tree, one code of length 1: its code 0 is
	// distance 1, its code 1 is invalid.
	lit = make([]uint8, 258)
	lit['a'], lit[256], lit[257] = 1, 2, 2
	for _, badDist := range []bool{false, true} {
		w, lc, dc := dynamicBlock(lit, []uint8{1})
		w.code(lc, lit, 'a')
		w.code(lc, lit, 257)
		if badDist {
			w.bits(1, 1)
		} else {
			w.code(dc, []uint8{1}, 0)
		}
		w.code(lc, lit, 256)
		seeds = append(seeds, w.bytes())
	}

	// HLIT and HDIST at their limits (286 and 30 codes), then one past
	// (287 and 31), which flate rejects.
	for _, n := range [][2]int{{286, 30}, {287, 1}, {257, 31}} {
		lit := make([]uint8, n[0])
		lit['b'], lit[256] = 1, 1
		w, lc, _ := dynamicBlock(lit, make([]uint8, n[1]))
		w.code(lc, lit, 'b')
		w.code(lc, lit, 256)
		seeds = append(seeds, w.bytes())
	}

	// A repeat-previous-length code (16) with no previous length.
	clens := make([]uint8, 19)
	for s := 0; s < 15; s++ {
		clens[s] = 4
	}
	clens[16] = 4
	w = new(bitWriter)
	w.dynamicHeader(257, 1, clens, append([]clSym{{sym: 16}}, make([]clSym, 255)...))
	seeds = append(seeds, w.bytes())

	// Stored blocks: valid, NLEN not LEN's complement, cut short; and the
	// reserved block type.
	seeds = append(seeds,
		[]byte{1, 5, 0, 0xfa, 0xff, 'h', 'e', 'l', 'l', 'o'},
		[]byte{1, 5, 0, 0xfb, 0xff, 'h', 'e', 'l', 'l', 'o'},
		[]byte{1, 5, 0, 0xfa, 0xff, 'h'},
		[]byte{0x07},
		[]byte{},
	)
	return seeds
}

// deflateAll compresses p at every flate level: stored (0), Huffman-only
// (-2), and the LZ77 levels, whose blocks are fixed or dynamic.
func deflateAll(t testing.TB, p []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// inflateSeeds is FuzzInflate's corpus: every stream of an RM1 stripe at
// both cardinalities, flate's output at every level, the crafted corner
// cases, and truncations and single-bit flips of valid streams.
func inflateSeeds(t testing.TB) [][]byte {
	t.Helper()
	streams := rm1Streams(t)
	var seeds [][]byte
	for _, s := range streams {
		seeds = append(seeds, s.data)
	}
	// Just over 64 KiB of RM1 payloads deflates to more than one block at
	// every level: a stored block holds at most 65535 bytes. Larger seeds
	// only slow the fuzzer down.
	const multiBlock = 1<<16 + 1<<10
	var payloads []byte
	for _, s := range streams {
		if len(payloads) >= multiBlock {
			break
		}
		p, err := decompress(s.data, s.raw)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p...)
		payloadPool.put(p)
	}
	payloads = payloads[:multiBlock]
	hello := deflateAll(t, []byte("hello, hello, hello world"))
	seeds = append(seeds, hello...)
	seeds = append(seeds, deflateAll(t, nil)...)
	seeds = append(seeds, deflateAll(t, payloads)...)
	seeds = append(seeds, craftedSeeds()...)

	valid := [][]byte{streams[0].data, streams[len(streams)/2].data, streams[len(streams)-1].data, hello[0], hello[len(hello)-1]}
	for _, v := range valid {
		for _, n := range []int{1, len(v) / 2, len(v) - 1} {
			seeds = append(seeds, v[:n])
		}
		for bit := 0; bit < 8*len(v); bit += 8*len(v)/8 + 1 {
			c := append([]byte(nil), v...)
			c[bit/8] ^= 1 << (bit % 8)
			seeds = append(seeds, c)
		}
	}
	return seeds
}

// inflateCap bounds the output a fuzz input is decoded to; beyond it
// inflate must fail with errInflateOverflow or an earlier error.
const inflateCap = 1 << 20

// fuzzOut and oracle, compress/flate's reader, are reused from input to
// input: the fuzz body runs one input at a time.
var (
	fuzzOut = make([]byte, inflateCap)
	oracle  = flate.NewReader(nil)
)

// checkInflate decodes src with compress/flate and with inflate and
// fails unless they agree: both reject, or both accept with the same
// bytes. An accepted stream must also pass decompress at its exact
// length and fail it as corrupt one byte short. (One byte long ends
// short of the buffer, which the exact comparison of lengths covers.)
func checkInflate(t testing.TB, src []byte) {
	t.Helper()
	if err := oracle.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	want, werr := io.ReadAll(io.LimitReader(oracle, inflateCap+1))
	n, err := inflate(fuzzOut, src)
	switch {
	case len(want) > inflateCap:
		if err == nil {
			t.Fatalf("inflate accepted %d bytes into %d: flate inflates past it", n, inflateCap)
		}
		return
	case werr != nil:
		if err == nil {
			t.Fatalf("inflate accepted %d bytes, flate rejects: %v", n, werr)
		}
		return
	case err != nil:
		t.Fatalf("inflate rejects (%v) what flate inflates to %d bytes", err, len(want))
	case !bytes.Equal(fuzzOut[:n], want):
		t.Fatalf("inflate wrote %d bytes, flate %d, and they differ", n, len(want))
	}
	raw := int64(len(want))
	p, err := decompress(src, raw)
	if err != nil {
		t.Fatalf("decompress at the exact length %d: %v", raw, err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("decompress differs from flate")
	}
	payloadPool.put(p)
	if raw == 0 {
		return
	}
	if _, err := decompress(src, raw-1); !errors.Is(err, tectonic.ErrCorrupt) {
		t.Fatalf("decompress of a %d-byte stream at length %d: %v, want ErrCorrupt", raw, raw-1, err)
	}
}

func FuzzInflate(f *testing.F) {
	for _, seed := range inflateSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkInflate(t, src)
	})
}

// TestFuzzInflateSeedCorpus runs the seed corpus through the fuzz body,
// so plain `go test` keeps the differential check without the fuzz
// engine.
func TestFuzzInflateSeedCorpus(t *testing.T) {
	for _, seed := range inflateSeeds(t) {
		checkInflate(t, seed)
	}
}

// TestDecompressRejectsShortAndWrongLength: a stream cut in half, or one
// whose recorded length is off by one either way, is corrupt — not a
// short payload for the column decoders to trip over.
func TestDecompressRejectsShortAndWrongLength(t *testing.T) {
	for i, s := range rm1Streams(t) {
		for name, c := range map[string]struct {
			data []byte
			raw  int64
		}{
			"cut in half":   {s.data[:len(s.data)/2], s.raw},
			"raw length -1": {s.data, s.raw - 1},
			"raw length +1": {s.data, s.raw + 1},
		} {
			if _, err := decompress(c.data, c.raw); !errors.Is(err, tectonic.ErrCorrupt) {
				t.Fatalf("stream %d %s: %v, want ErrCorrupt", i, name, err)
			}
		}
	}
}

// TestStreamLengthMismatchReachesHeal: a projected read verifies no
// content hash, so a stream that inflates to the wrong length is its only
// corruption signal. The fetch must classify it as corrupt, quarantine
// each replica that served it, and fail once none is left.
func TestStreamLengthMismatchReachesHeal(t *testing.T) {
	for name, corrupt := range map[string]func(*StreamMeta){
		"raw length +1":    func(s *StreamMeta) { s.RawLength++ },
		"raw length -1":    func(s *StreamMeta) { s.RawLength-- },
		"stream cut short": func(s *StreamMeta) { s.Length /= 2 },
	} {
		t.Run(name, func(t *testing.T) {
			cl, err := tectonic.NewCluster(tectonic.Options{
				Nodes: 4, Replication: 2, ChunkSize: 1 << 20,
				Retry: tectonic.RetryPolicy{DisableHedge: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := buildSchema(t, 3, 2)
			writeFile(t, cl, "f", ts, genRows(ts, 64, 0.9, 3), WriterOptions{Flatten: true, RowsPerStripe: 64})
			r, err := OpenReader(cl, "f")
			if err != nil {
				t.Fatal(err)
			}
			stripe := &r.footer.Stripes[0]
			k := len(stripe.Streams) - 1
			corrupt(&stripe.Streams[k])
			proj := schema.NewProjection(stripe.Streams[k].Feature)

			_, stats, err := r.ReadStripe(0, proj, ReadOptions{}, nil)
			if !errors.Is(err, tectonic.ErrCorrupt) {
				t.Fatalf("read: %v, want ErrCorrupt", err)
			}
			if stats.Quarantines != int64(cl.Replication()) || stats.CorruptStripes != int64(cl.Replication())+1 {
				t.Fatalf("heal quarantined %d replicas over %d corrupt fetches, want %d over %d",
					stats.Quarantines, stats.CorruptStripes, cl.Replication(), cl.Replication()+1)
			}
		})
	}
}

// BenchmarkInflateRM1Streams times the inflate layer alone over every
// stream of an RM1 stripe at both cardinalities, against compress/flate
// driven the way the read path drove it (a reused reader reset per
// stream, the payload read to its recorded length, then the tail).
func BenchmarkInflateRM1Streams(b *testing.B) {
	streams := rm1Streams(b)
	var maxRaw int64
	for _, s := range streams {
		maxRaw = max(maxRaw, s.raw)
	}
	dst := make([]byte, maxRaw)
	run := func(b *testing.B, inflateOne func(dst, src []byte) error) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				if err := inflateOne(dst[:s.raw], s.data); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		n := float64(b.N * len(streams))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/stream")
		b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/stream")
	}
	b.Run("dwrf", func(b *testing.B) {
		run(b, func(dst, src []byte) error {
			n, err := inflate(dst, src)
			if err == nil && n != len(dst) {
				err = errInflateTruncated
			}
			return err
		})
	})
	b.Run("stdlib", func(b *testing.B) {
		var br bytes.Reader
		fr := flate.NewReader(&br)
		run(b, func(dst, src []byte) error {
			br.Reset(src)
			if err := fr.(flate.Resetter).Reset(&br, nil); err != nil {
				return err
			}
			if _, err := io.ReadFull(fr, dst); err != nil {
				return err
			}
			_, err := io.ReadAll(fr)
			return err
		})
	})
}

// TestStripeDecodeAllocs pins the decode path's allocations: from the
// second stripe on, decoding one 256-row RM1 stripe under the benchmark's
// projection (19 streams) may allocate twice per selected stream —
// cipher.NewCTR's two, which crypto/cipher gives no way to reuse — plus
// one per stripe for the storage read, its trace's Served entry. Inflate
// state, payloads, the stream selection, the I/O plan and the columns
// all come from free lists.
func TestStripeDecodeAllocs(t *testing.T) {
	proj := rm1Projection()
	opts := ReadOptions{CoalesceBytes: 128 << 10}
	for _, card := range []uint64{0, 4096} {
		r := writeRM1(t, card, 4)
		arena := NewArena()
		read := func(i int) {
			b, _, err := r.ReadStripe(i, proj, opts, arena)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		read(0)
		streams := 0
		for _, s := range r.footer.Stripes[0].Streams {
			if s.Kind == streamLabel || proj.Contains(s.Feature) {
				streams++
			}
		}
		next := 0
		got := testing.AllocsPerRun(30, func() {
			read(1 + next%(r.Stripes()-1))
			next++
		})
		if allowed := float64(2*streams + 1); got > allowed {
			t.Fatalf("card %d: a %d-stream stripe decode makes %.1f allocations, allowance %.0f", card, streams, got, allowed)
		}
		t.Logf("card %d: %.1f allocations per %d-stream stripe decode", card, got, streams)
	}
}

// TestStripeDecodeAllocsAcrossGC is the read-path twin of
// TestStripeFlushSteadyStateAllocsAcrossGC: with two collections before
// every decode, a stripe decode may allocate at most twice the bytes it
// allocates without them. The inflaters, buffers, stripe reads and
// arena columns it recycles must survive a collection, or each decode
// after one rebuilds them. It bounds bytes, not allocations, so a
// collection's few small objects elsewhere do not decide it.
func TestStripeDecodeAllocsAcrossGC(t *testing.T) {
	proj := rm1Projection()
	opts := ReadOptions{CoalesceBytes: 128 << 10}
	for _, card := range []uint64{0, 4096} {
		r := writeRM1(t, card, 4)
		arena := NewArena()
		next := 0
		// perDecode decodes rounds stripes in turn, calling before ahead
		// of each, and returns the bytes a decode allocated on average.
		perDecode := func(rounds int, before func()) uint64 {
			var total uint64
			for range rounds {
				before()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b, _, err := r.ReadStripe(next%r.Stripes(), proj, opts, arena)
				if err != nil {
					t.Fatal(err)
				}
				b.Release()
				runtime.ReadMemStats(&m1)
				total += m1.TotalAlloc - m0.TotalAlloc
				next++
			}
			return total / uint64(rounds)
		}
		perDecode(2*r.Stripes(), func() {}) // every stripe, twice: warm
		calm := perDecode(20, func() {})
		collected := perDecode(20, func() {
			runtime.GC()
			runtime.GC()
		})
		if collected > 2*calm {
			t.Fatalf("card %d: a stripe decode after two collections allocates %d bytes, %d without them: recycled decode state does not survive a collection", card, collected, calm)
		}
		t.Logf("card %d: %d bytes per stripe decode, %d after two collections", card, calm, collected)
	}
}
