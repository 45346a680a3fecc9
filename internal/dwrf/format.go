// Package dwrf implements the paper's columnar training-data file format
// (§3.1.2, §7.5): an ORC-derived layout where rows are grouped into
// stripes and encoded as compressed, encrypted streams.
//
// The package implements both layouts the paper contrasts:
//
//   - The regular map layout, where each stripe stores whole rows and a
//     reader must fetch and decode every byte ("over read").
//   - The feature-flattened layout (FF), where every feature ID becomes
//     its own logical column encoded as a separate stream, enabling
//     selective reads at the storage layer.
//
// On top of the flattened layout the reader and writer implement the
// paper's co-designed optimizations: coalesced reads (CR), feature
// reordering (FR), and large stripes (LS); the reader can decode into
// either row maps or the in-memory flatmap (FM) columnar batch.
//
// # Stream encodings (format v2)
//
// Format v2 picks a wire encoding per stream per stripe, chosen at flush
// time from the stripe's own value statistics (cardinality, presence
// runs, ID ordering). The matrix:
//
//	Encoding  Streams            Chosen when                       Wire layout
//	--------  -----------------  --------------------------------  -------------------------------------------
//	plain     all                fallback (always legal)           v1 layout, fixed-width little-endian
//	dict      sparse,score-list  few distinct values; dictionary   u32 entries, u32 dictLen, sorted dictionary
//	                             + packed indices smaller than     (i64 | i64+f32 per entry), then per row
//	                             plain                             entry: u32 row, u32 n, n packed indices
//	                                                               (1 byte if dictLen<=256 else 2 bytes)
//	rle       dense              presence forms few runs; run      u32 count, u32 runs, runs x (u32 start,
//	                             list + value tail smaller than    u32 len), then count x f32 value tail
//	                             per-value (row,value) pairs
//	delta     sparse             every row's ID list is strictly   u32 entries, per entry: u32 row, u32 n,
//	                             ascending and varint deltas are   zigzag-varint first value, n-1 uvarint
//	                             smaller than plain                deltas (each >= 1)
//
// Size comparisons are exact (computed from the gathered column, not
// estimated), so the writer never picks an encoding that is larger than
// plain. Labels and row-data streams are always plain.
//
// Compatibility rules: v1 files carry no StreamMeta.Encoding field; gob
// decodes the absent field as zero, which IS EncPlain, so every v1 file
// reads under the v2 reader unchanged. A v2 writer with PlainEncodings
// set emits streams byte-identical to v1 (same payloads, same
// compression, same StripeMeta.ContentHash). Readers reject footers
// whose Version is newer than their own rather than misparse unknown
// encodings.
//
// The batch decode path is pooled end to end: stream staging buffers,
// flate decompressor state, and decompressed payloads recycle through
// capacity-classed pools, and the column decoders stream values directly
// into Arena-recycled columns (ReadStripeBatchArena). Dictionary-encoded
// sparse streams decode into dictionary-indexed columns (SparseColumn
// with a non-empty Dict) so downstream kernels can process each distinct
// value once. An arena-owned Batch hands every buffer back via Release
// once its consumer has copied the data out — see Arena for the
// ownership rules.
package dwrf

import (
	"bytes"
	"cmp"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"dsi/internal/schema"
)

// Magic identifies DWRF files.
const Magic = "DWRF"

// Version is the format version written by this package. Version 2
// added per-stream encodings (StreamMeta.Encoding); version 1 files —
// plain encodings only — remain fully readable.
const Version = 2

// streamKind tags the payload type of a stream.
type streamKind uint8

const (
	streamRowData   streamKind = iota // whole rows (regular map layout)
	streamLabel                       // labels for all rows in the stripe
	streamDense                       // one dense feature column
	streamSparse                      // one sparse feature column
	streamScoreList                   // one score-list feature column
)

// StreamEncoding identifies the wire encoding of one stream's payload.
// The zero value is the v1 plain layout, so footers written before the
// field existed decode correctly.
type StreamEncoding uint8

const (
	// EncPlain is the v1 fixed-width layout; legal for every stream kind.
	EncPlain StreamEncoding = iota
	// EncDict is a sorted distinct-value dictionary plus packed indices;
	// sparse and score-list streams.
	EncDict
	// EncRLE run-length encodes the present-row index list and stores
	// values as a bulk tail; dense streams.
	EncRLE
	// EncDelta stores each row's ID list as a varint first value plus
	// positive varint deltas; strictly ascending sparse streams.
	EncDelta

	encMax // one past the last valid encoding
)

// String names the encoding for error messages and stats.
func (e StreamEncoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	case EncDelta:
		return "delta"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// maxDictCard caps dictionary sizes: above 64Ki distinct values the
// packed indices would need 4 bytes and the dictionary itself dominates,
// so larger-cardinality streams stay plain (or delta).
const maxDictCard = 1 << 16

// dictIdxWidth is the packed-index byte width for a dictionary of d
// entries.
func dictIdxWidth(d int) int {
	switch {
	case d <= 1<<8:
		return 1
	case d <= 1<<16:
		return 2
	default:
		return 4
	}
}

// StreamMeta describes one encoded stream within a stripe. Offsets are
// absolute within the file so a reader can fetch a stream with a single
// ranged read.
type StreamMeta struct {
	Kind      streamKind
	Feature   schema.FeatureID // 0 for row-data and label streams
	Offset    int64
	Length    int64 // encrypted+compressed length on storage
	RawLength int64 // decoded payload length
	// Encoding is the stream's wire encoding, chosen per stream at flush
	// time. Absent (zero) in v1 footers, which gob decodes as EncPlain —
	// exactly the v1 layout.
	Encoding StreamEncoding
}

// StripeMeta describes one stripe.
type StripeMeta struct {
	Offset  int64
	Length  int64
	Rows    int
	Streams []StreamMeta
	// ContentHash is an FNV-1a digest over the stripe's compressed
	// stream payloads (pre-encryption, so it is a function of content
	// alone, not file layout). It names the stripe's decoded value for
	// content-addressed caching (ware.WareID). Zero in files written
	// before the field existed — gob tolerates the absence, and readers
	// fall back to addressing by path+stripe. Note the digest is over
	// ENCODED bytes: re-encoding a stripe (v1 plain vs v2 dictionary)
	// changes its hash even though the decoded values are identical, so
	// differently-encoded copies of one table are distinct wares.
	ContentHash uint64
}

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds data into a running FNV-1a digest (seed fnvOffset64).
func fnvMix(h uint64, data []byte) uint64 {
	if h == 0 {
		h = fnvOffset64
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// FileFooter is the file's metadata tail, gob-encoded at the end of the
// file.
type FileFooter struct {
	Rows      int
	Flattened bool
	Columns   []schema.Column
	Stripes   []StripeMeta
	// Version is the format version the file was written with. Zero in
	// v1 files (the field postdates them) and means 1.
	Version int
}

// encryptionKey is the fixed AES-128 key standing in for the production
// at-rest encryption; the cost of the pass matters here, not the secrecy.
var encryptionKey = []byte("dsi-repro-aes-16")

// encBlock caches the AES block cipher: the key is fixed, so expanding
// the key schedule per stream was pure per-stream garbage.
var (
	encBlock     cipher.Block
	encBlockErr  error
	encBlockOnce sync.Once
)

// cryptStreamTo applies AES-CTR from src into dst (dst and src may be
// the same slice for in-place operation), with the IV derived from the
// stream's absolute file offset so every stream is independently
// decryptable. Writing into a separate dst lets the reader decrypt
// straight out of a borrowed storage slice without a staging copy.
func cryptStreamTo(dst, src []byte, fileOffset int64) error {
	encBlockOnce.Do(func() {
		encBlock, encBlockErr = aes.NewCipher(encryptionKey)
	})
	if encBlockErr != nil {
		return fmt.Errorf("dwrf: cipher: %w", encBlockErr)
	}
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[:], uint64(fileOffset))
	cipher.NewCTR(encBlock, iv[:]).XORKeyStream(dst, src)
	return nil
}

// cryptStream applies AES-CTR in place.
func cryptStream(data []byte, fileOffset int64) error {
	return cryptStreamTo(data, data, fileOffset)
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

// flateDecoder pairs a reusable bytes.Reader with a flate decompressor
// so a stream decode costs no reader-machinery allocations (the flate
// reader's Huffman state was the dominant residual garbage of the
// stripe decode path); both reset per stream.
type flateDecoder struct {
	br bytes.Reader
	fr io.ReadCloser
}

var flateDecoders = sync.Pool{New: func() any { return new(flateDecoder) }}

// decompress inflates data. rawLen is the decoded length promised by
// the stream's metadata (StreamMeta.RawLength): when positive the
// output buffer is drawn from the payload pool and sized once up
// front, eliminating io.ReadAll's regrowth copies on every stream
// decode; zero or negative falls back to incremental reading. Return
// the buffer with putPayloadBuf once its decoded values are parsed
// out. A stream that decodes shorter than promised is returned
// truncated (payload decoders bounds-check), and one that decodes
// longer keeps its tail so corrupt metadata degrades to the unsized
// path rather than silently dropping bytes.
func decompress(data []byte, rawLen int64) ([]byte, error) {
	d := flateDecoders.Get().(*flateDecoder)
	defer flateDecoders.Put(d)
	d.br.Reset(data)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.br)
	} else if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("dwrf: flate reset: %w", err)
	}
	r := d.fr
	if rawLen <= 0 {
		out, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("dwrf: decompress: %w", err)
		}
		return out, nil
	}
	out := getPayloadBuf(rawLen)
	n, err := io.ReadFull(r, out)
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return out[:n], nil
	default:
		putPayloadBuf(out)
		return nil, fmt.Errorf("dwrf: decompress: %w", err)
	}
	tail, err := io.ReadAll(r)
	if err != nil {
		putPayloadBuf(out)
		return nil, fmt.Errorf("dwrf: decompress: %w", err)
	}
	if len(tail) > 0 {
		out = append(out, tail...)
	}
	return out, nil
}

// --- stream payload encoding -------------------------------------------
//
// All integers are little-endian. Row indices are stripe-relative.

// payloadWriter accumulates one stream's payload in a plain byte slice
// whose capacity carries over between streams (the stripeEncoder owns
// one for the writer's whole lifetime), so encoding a stream allocates
// nothing once the buffer has grown to the stripe's working size.
type payloadWriter struct {
	buf []byte
}

func (p *payloadWriter) reset()        { p.buf = p.buf[:0] }
func (p *payloadWriter) bytes() []byte { return p.buf }

func (p *payloadWriter) u32(v uint32) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, v)
}

func (p *payloadWriter) i64(v int64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(v))
}

func (p *payloadWriter) f32(v float32) {
	p.u32(math.Float32bits(v))
}

func (p *payloadWriter) varint(v int64) {
	p.buf = binary.AppendVarint(p.buf, v)
}

func (p *payloadWriter) uvarint(v uint64) {
	p.buf = binary.AppendUvarint(p.buf, v)
}

// idx appends one packed dictionary index of width w bytes.
func (p *payloadWriter) idx(v uint32, w int) {
	switch w {
	case 1:
		p.buf = append(p.buf, byte(v))
	case 2:
		p.buf = binary.LittleEndian.AppendUint16(p.buf, uint16(v))
	default:
		p.u32(v)
	}
}

// uvarintLen is the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of the zigzag varint for v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

type payloadReader struct {
	data []byte
	pos  int
}

func (p *payloadReader) remaining() int { return len(p.data) - p.pos }

func (p *payloadReader) u32() (uint32, error) {
	if p.remaining() < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(p.data[p.pos:])
	p.pos += 4
	return v, nil
}

func (p *payloadReader) i64() (int64, error) {
	if p.remaining() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(p.data[p.pos:])
	p.pos += 8
	return int64(v), nil
}

func (p *payloadReader) f32() (float32, error) {
	u, err := p.u32()
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(u), nil
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("dwrf: varint overflow")
	}
	p.pos += n
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.data[p.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("dwrf: varint overflow")
	}
	p.pos += n
	return v, nil
}

// idx reads one packed dictionary index of width w bytes.
func (p *payloadReader) idx(w int) (uint32, error) {
	if p.remaining() < w {
		return 0, io.ErrUnexpectedEOF
	}
	var v uint32
	switch w {
	case 1:
		v = uint32(p.data[p.pos])
	case 2:
		v = uint32(binary.LittleEndian.Uint16(p.data[p.pos:]))
	default:
		v = binary.LittleEndian.Uint32(p.data[p.pos:])
	}
	p.pos += w
	return v, nil
}

// stripeEncoder gathers a stripe's column values once per stream, picks
// the smallest eligible encoding from the gathered statistics, and emits
// the payload through a long-lived payloadWriter. All scratch slices
// keep their capacity between streams and stripes, so steady-state
// encoding is allocation-free — the single-pass replacement for the v1
// encoders' two map walks plus a fresh bytes.Buffer per stream.
//
// The encoder also owns the deflate state its payloads are compressed
// with: a flate.Writer carries ~1 MB of hash tables and Huffman state,
// so it is built once and Reset per stream, and its output accumulates
// in out (see compress). Encoders outlive the writers that use them:
// a flush borrows one per worker from stripeEncoders.
type stripeEncoder struct {
	pw    payloadWriter
	fw    *flate.Writer
	out   appendWriter // compressed streams, back to back
	rows  []uint32     // present-entry stripe-relative row indices
	lens  []uint32     // per-entry list lengths (sparse/score-list)
	f32s  []float32
	vals  []int64
	svals []schema.ScoredValue
	dict  []int64
	sdict []schema.ScoredValue
}

// stripeEncoders holds idle encoders, as flateDecoders does for the read
// path: writers live for one partition, deflate state should not.
var stripeEncoders sync.Pool

// getStripeEncoder takes an encoder from the pool, building its deflate
// state if the pool is empty, with an empty output buffer. (The zero
// value encodes payloads but cannot compress them.)
func getStripeEncoder() (*stripeEncoder, error) {
	if e, ok := stripeEncoders.Get().(*stripeEncoder); ok {
		e.out.buf = e.out.buf[:0]
		return e, nil
	}
	e := new(stripeEncoder)
	fw, err := flate.NewWriter(&e.out, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("dwrf: flate: %w", err)
	}
	e.fw = fw
	return e, nil
}

// compress deflates payload onto the end of e.out and returns the bytes
// it added. The output is byte-identical to a fresh BestSpeed
// flate.Writer's: Reset restores exactly that state. The returned slice
// stays intact when later streams grow e.out (append never writes into
// bytes already returned); it is the next borrower's truncation of
// e.out that recycles it.
func (e *stripeEncoder) compress(payload []byte) ([]byte, error) {
	e.fw.Reset(&e.out)
	start := len(e.out.buf)
	if _, err := e.fw.Write(payload); err != nil {
		return nil, fmt.Errorf("dwrf: compress: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, fmt.Errorf("dwrf: compress close: %w", err)
	}
	return e.out.buf[start:len(e.out.buf):len(e.out.buf)], nil
}

// encodeDense encodes a dense feature column: present rows only. When
// the present rows form few runs, the row indices are run-length encoded
// and the values stored as a bulk tail; otherwise the plain v1
// (row, value) pair layout is kept.
func (e *stripeEncoder) encodeDense(rows []*schema.Sample, id schema.FeatureID, plainOnly bool) ([]byte, StreamEncoding) {
	e.rows = e.rows[:0]
	e.f32s = e.f32s[:0]
	for i, r := range rows {
		if v, ok := r.DenseFeatures[id]; ok {
			e.rows = append(e.rows, uint32(i))
			e.f32s = append(e.f32s, v)
		}
	}
	count := len(e.rows)

	runs := 0
	for k := 0; k < count; {
		j := k + 1
		for j < count && e.rows[j] == e.rows[j-1]+1 {
			j++
		}
		runs++
		k = j
	}
	plainSize := 4 + 8*count
	rleSize := 8 + 8*runs + 4*count

	p := &e.pw
	p.reset()
	if plainOnly || rleSize >= plainSize {
		p.u32(uint32(count))
		for k, row := range e.rows {
			p.u32(row)
			p.f32(e.f32s[k])
		}
		return p.bytes(), EncPlain
	}
	p.u32(uint32(count))
	p.u32(uint32(runs))
	for k := 0; k < count; {
		j := k + 1
		for j < count && e.rows[j] == e.rows[j-1]+1 {
			j++
		}
		p.u32(e.rows[k])
		p.u32(uint32(j - k))
		k = j
	}
	for _, v := range e.f32s {
		p.f32(v)
	}
	return p.bytes(), EncRLE
}

// buildDict fills e.dict with the sorted distinct values of e.vals.
func (e *stripeEncoder) buildDict() {
	e.dict = append(e.dict[:0], e.vals...)
	slices.Sort(e.dict)
	e.dict = slices.Compact(e.dict)
}

// dictIdx returns v's index in the sorted dictionary.
func dictIdx(dict []int64, v int64) uint32 {
	i, _ := slices.BinarySearch(dict, v)
	return uint32(i)
}

// encodeSparse encodes a sparse feature column, picking the smallest of
// the plain, dictionary, and (for strictly ascending ID lists) delta
// layouts from the stripe's own values.
func (e *stripeEncoder) encodeSparse(rows []*schema.Sample, id schema.FeatureID, plainOnly bool) ([]byte, StreamEncoding) {
	e.rows = e.rows[:0]
	e.lens = e.lens[:0]
	e.vals = e.vals[:0]
	ascending := true
	deltaBody := 0 // varint bytes of the delta value sections
	for i, r := range rows {
		vals, ok := r.SparseFeatures[id]
		if !ok {
			continue
		}
		e.rows = append(e.rows, uint32(i))
		e.lens = append(e.lens, uint32(len(vals)))
		e.vals = append(e.vals, vals...)
		if ascending {
			for j, v := range vals {
				if j == 0 {
					deltaBody += varintLen(v)
				} else if d := v - vals[j-1]; d > 0 {
					deltaBody += uvarintLen(uint64(d))
				} else {
					ascending = false
					break
				}
			}
		}
	}
	entries := len(e.rows)
	total := len(e.vals)
	plainSize := 4 + 8*entries + 8*total

	p := &e.pw
	p.reset()
	enc := EncPlain
	if !plainOnly {
		bestSize := plainSize
		e.buildDict()
		d := len(e.dict)
		w := dictIdxWidth(d)
		if d <= maxDictCard {
			if dictSize := 8 + 8*d + 8*entries + w*total; dictSize < bestSize {
				enc, bestSize = EncDict, dictSize
			}
		}
		if ascending {
			if deltaSize := 4 + 8*entries + deltaBody; deltaSize < bestSize {
				enc = EncDelta
			}
		}
	}

	switch enc {
	case EncDict:
		p.u32(uint32(entries))
		p.u32(uint32(len(e.dict)))
		for _, v := range e.dict {
			p.i64(v)
		}
		w := dictIdxWidth(len(e.dict))
		pos := 0
		for k, row := range e.rows {
			n := int(e.lens[k])
			p.u32(row)
			p.u32(uint32(n))
			for _, v := range e.vals[pos : pos+n] {
				p.idx(dictIdx(e.dict, v), w)
			}
			pos += n
		}
	case EncDelta:
		p.u32(uint32(entries))
		pos := 0
		for k, row := range e.rows {
			n := int(e.lens[k])
			p.u32(row)
			p.u32(uint32(n))
			vals := e.vals[pos : pos+n]
			pos += n
			for j, v := range vals {
				if j == 0 {
					p.varint(v)
				} else {
					p.uvarint(uint64(v - vals[j-1]))
				}
			}
		}
	default:
		p.u32(uint32(entries))
		pos := 0
		for k, row := range e.rows {
			n := int(e.lens[k])
			p.u32(row)
			p.u32(uint32(n))
			for _, v := range e.vals[pos : pos+n] {
				p.i64(v)
			}
			pos += n
		}
	}
	return p.bytes(), enc
}

// buildScoredDict fills e.sdict with the sorted distinct (value, score)
// pairs of e.svals.
func (e *stripeEncoder) buildScoredDict() {
	e.sdict = append(e.sdict[:0], e.svals...)
	slices.SortFunc(e.sdict, scoredCmp)
	e.sdict = slices.CompactFunc(e.sdict, func(a, b schema.ScoredValue) bool { return scoredCmp(a, b) == 0 })
}

// scoredCmp orders scored values by (value, score bit pattern).
func scoredCmp(a, b schema.ScoredValue) int {
	if c := cmp.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	return cmp.Compare(math.Float32bits(a.Score), math.Float32bits(b.Score))
}

// scoredDictIdx returns v's index in the sorted scored dictionary.
func scoredDictIdx(dict []schema.ScoredValue, v schema.ScoredValue) uint32 {
	i, _ := slices.BinarySearchFunc(dict, v, scoredCmp)
	return uint32(i)
}

// encodeScoreList encodes a score-list feature column, with a
// (value, score) pair dictionary when the distinct pairs are few.
func (e *stripeEncoder) encodeScoreList(rows []*schema.Sample, id schema.FeatureID, plainOnly bool) ([]byte, StreamEncoding) {
	e.rows = e.rows[:0]
	e.lens = e.lens[:0]
	e.svals = e.svals[:0]
	for i, r := range rows {
		vals, ok := r.ScoreListFeatures[id]
		if !ok {
			continue
		}
		e.rows = append(e.rows, uint32(i))
		e.lens = append(e.lens, uint32(len(vals)))
		e.svals = append(e.svals, vals...)
	}
	entries := len(e.rows)
	total := len(e.svals)
	plainSize := 4 + 8*entries + 12*total

	p := &e.pw
	p.reset()
	enc := EncPlain
	if !plainOnly {
		e.buildScoredDict()
		d := len(e.sdict)
		w := dictIdxWidth(d)
		if d <= maxDictCard {
			if dictSize := 8 + 12*d + 8*entries + w*total; dictSize < plainSize {
				enc = EncDict
			}
		}
	}

	switch enc {
	case EncDict:
		p.u32(uint32(entries))
		p.u32(uint32(len(e.sdict)))
		for _, v := range e.sdict {
			p.i64(v.Value)
			p.f32(v.Score)
		}
		w := dictIdxWidth(len(e.sdict))
		pos := 0
		for k, row := range e.rows {
			n := int(e.lens[k])
			p.u32(row)
			p.u32(uint32(n))
			for _, v := range e.svals[pos : pos+n] {
				p.idx(scoredDictIdx(e.sdict, v), w)
			}
			pos += n
		}
	default:
		p.u32(uint32(entries))
		pos := 0
		for k, row := range e.rows {
			n := int(e.lens[k])
			p.u32(row)
			p.u32(uint32(n))
			for _, v := range e.svals[pos : pos+n] {
				p.i64(v.Value)
				p.f32(v.Score)
			}
			pos += n
		}
	}
	return p.bytes(), enc
}

// encodeLabels encodes the per-row labels of a stripe (always plain).
func (e *stripeEncoder) encodeLabels(rows []*schema.Sample) []byte {
	p := &e.pw
	p.reset()
	p.u32(uint32(len(rows)))
	for _, r := range rows {
		p.f32(r.Label)
	}
	return p.bytes()
}

// encodeRowData encodes whole rows for the regular map layout: every
// feature of every row, interleaved (always plain).
func (e *stripeEncoder) encodeRowData(rows []*schema.Sample) []byte {
	p := &e.pw
	p.reset()
	p.u32(uint32(len(rows)))
	for _, r := range rows {
		p.f32(r.Label)
		p.u32(uint32(len(r.DenseFeatures)))
		for id, v := range r.DenseFeatures {
			p.u32(uint32(id))
			p.f32(v)
		}
		p.u32(uint32(len(r.SparseFeatures)))
		for id, vals := range r.SparseFeatures {
			p.u32(uint32(id))
			p.u32(uint32(len(vals)))
			for _, v := range vals {
				p.i64(v)
			}
		}
		p.u32(uint32(len(r.ScoreListFeatures)))
		for id, vals := range r.ScoreListFeatures {
			p.u32(uint32(id))
			p.u32(uint32(len(vals)))
			for _, v := range vals {
				p.i64(v.Value)
				p.f32(v.Score)
			}
		}
	}
	return p.bytes()
}

// --- stream payload decoding -------------------------------------------

// decodeDenseInto decodes a dense stream directly into a zeroed column
// of rows rows. Row indices are validated against the stripe's row
// count so corrupt payloads error instead of writing out of bounds.
func decodeDenseInto(data []byte, enc StreamEncoding, rows int, col *DenseColumn) error {
	switch enc {
	case EncPlain:
		return decodeDensePlain(data, rows, col)
	case EncRLE:
		return decodeDenseRLE(data, rows, col)
	default:
		return fmt.Errorf("dwrf: %v encoding invalid for dense stream", enc)
	}
}

func decodeDensePlain(data []byte, rows int, col *DenseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	if int64(count)*8 > int64(r.remaining()) {
		return io.ErrUnexpectedEOF
	}
	for i := uint32(0); i < count; i++ {
		row := binary.LittleEndian.Uint32(data[r.pos:])
		v := math.Float32frombits(binary.LittleEndian.Uint32(data[r.pos+4:]))
		r.pos += 8
		if int(row) >= rows {
			return fmt.Errorf("dwrf: dense row %d outside stripe of %d rows", row, rows)
		}
		col.Present[row] = true
		col.Values[row] = v
	}
	return nil
}

// decodeDenseRLE decodes the run-length layout: one bounds check covers
// the whole run list and value tail, then both sections are walked with
// direct indexing.
func decodeDenseRLE(data []byte, rows int, col *DenseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	runCount, err := r.u32()
	if err != nil {
		return err
	}
	runsOff := r.pos
	valsOff := int64(runsOff) + int64(runCount)*8
	if valsOff+int64(count)*4 > int64(len(data)) {
		return io.ErrUnexpectedEOF
	}
	vi := 0
	prevEnd := 0
	for k := 0; k < int(runCount); k++ {
		start := int(binary.LittleEndian.Uint32(data[runsOff+8*k:]))
		length := int(binary.LittleEndian.Uint32(data[runsOff+8*k+4:]))
		if start < prevEnd || length < 0 || start+length > rows {
			return fmt.Errorf("dwrf: dense run [%d,%d) invalid in stripe of %d rows", start, start+length, rows)
		}
		if vi+length > int(count) {
			return fmt.Errorf("dwrf: dense runs cover more than %d values", count)
		}
		base := int(valsOff) + 4*vi
		for i := 0; i < length; i++ {
			col.Present[start+i] = true
			col.Values[start+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[base+4*i:]))
		}
		vi += length
		prevEnd = start + length
	}
	if vi != int(count) {
		return fmt.Errorf("dwrf: dense runs cover %d of %d values", vi, count)
	}
	return nil
}

// decodeSparseInto decodes a sparse stream directly into a column of
// rows rows, building the CSR offsets as it streams: no per-row value
// slices, no entry buffering. Encoders emit entries in ascending row
// order; an out-of-order or out-of-range row errors (the old buffered
// decoder silently dropped everything after an out-of-order entry).
// Dictionary streams decode into the dictionary-indexed representation
// (col.Dict + index values); plain and delta streams materialize.
func decodeSparseInto(data []byte, enc StreamEncoding, rows int, col *SparseColumn) error {
	switch enc {
	case EncPlain:
		return decodeSparsePlain(data, rows, col)
	case EncDict:
		return decodeSparseDict(data, rows, col)
	case EncDelta:
		return decodeSparseDelta(data, rows, col)
	default:
		return fmt.Errorf("dwrf: %v encoding invalid for sparse stream", enc)
	}
}

// sparseEntryHeader reads and validates one (row, n) entry header,
// filling offsets up to row. next is the next row index whose offset is
// unwritten.
func sparseEntryHeader(r *payloadReader, rows int, next *int, offsets []int32, filled int) (int, int, error) {
	row, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	if int(row) >= rows || int(row) < *next {
		return 0, 0, fmt.Errorf("dwrf: sparse row %d out of order in stripe of %d rows", row, rows)
	}
	for ; *next <= int(row); *next++ {
		offsets[*next] = int32(filled)
	}
	return int(row), int(n), nil
}

func decodeSparsePlain(data []byte, rows int, col *SparseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	next := 0
	for i := uint32(0); i < count; i++ {
		_, n, err := sparseEntryHeader(&r, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if int64(n)*8 > int64(r.remaining()) {
			return io.ErrUnexpectedEOF
		}
		for j := 0; j < n; j++ {
			col.Values = append(col.Values, int64(binary.LittleEndian.Uint64(data[r.pos:])))
			r.pos += 8
		}
	}
	for ; next <= rows; next++ {
		col.Offsets[next] = int32(len(col.Values))
	}
	return nil
}

func decodeSparseDict(data []byte, rows int, col *SparseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	dlen, err := r.u32()
	if err != nil {
		return err
	}
	if int64(dlen)*8 > int64(r.remaining()) {
		return io.ErrUnexpectedEOF
	}
	col.Dict = col.Dict[:0]
	for i := uint32(0); i < dlen; i++ {
		col.Dict = append(col.Dict, int64(binary.LittleEndian.Uint64(data[r.pos:])))
		r.pos += 8
	}
	w := dictIdxWidth(int(dlen))
	next := 0
	for i := uint32(0); i < count; i++ {
		_, n, err := sparseEntryHeader(&r, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if int64(n)*int64(w) > int64(r.remaining()) {
			return io.ErrUnexpectedEOF
		}
		for j := 0; j < n; j++ {
			idx, _ := r.idx(w)
			if idx >= dlen {
				return fmt.Errorf("dwrf: dict index %d outside dictionary of %d", idx, dlen)
			}
			col.Values = append(col.Values, int64(idx))
		}
	}
	for ; next <= rows; next++ {
		col.Offsets[next] = int32(len(col.Values))
	}
	return nil
}

func decodeSparseDelta(data []byte, rows int, col *SparseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	next := 0
	for i := uint32(0); i < count; i++ {
		_, n, err := sparseEntryHeader(&r, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if int64(n) > int64(r.remaining()) { // each varint is >= 1 byte
			return io.ErrUnexpectedEOF
		}
		var prev int64
		for j := 0; j < n; j++ {
			if j == 0 {
				prev, err = r.varint()
			} else {
				var d uint64
				d, err = r.uvarint()
				prev += int64(d)
			}
			if err != nil {
				return err
			}
			col.Values = append(col.Values, prev)
		}
	}
	for ; next <= rows; next++ {
		col.Offsets[next] = int32(len(col.Values))
	}
	return nil
}

// decodeScoreListInto is decodeSparseInto for score-list streams.
// Dictionary-encoded score lists are materialized at decode time (the
// in-memory ScoreListColumn carries no dictionary); the wire-level
// dictionary still buys the smaller file and a cheaper decode loop.
func decodeScoreListInto(data []byte, enc StreamEncoding, rows int, col *ScoreListColumn) error {
	switch enc {
	case EncPlain:
		return decodeScoreListPlain(data, rows, col)
	case EncDict:
		return decodeScoreListDict(data, rows, col)
	default:
		return fmt.Errorf("dwrf: %v encoding invalid for score-list stream", enc)
	}
}

func decodeScoreListPlain(data []byte, rows int, col *ScoreListColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	next := 0
	for i := uint32(0); i < count; i++ {
		_, n, err := sparseEntryHeader(&r, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if int64(n)*12 > int64(r.remaining()) {
			return io.ErrUnexpectedEOF
		}
		for j := 0; j < n; j++ {
			v := int64(binary.LittleEndian.Uint64(data[r.pos:]))
			s := math.Float32frombits(binary.LittleEndian.Uint32(data[r.pos+8:]))
			r.pos += 12
			col.Values = append(col.Values, schema.ScoredValue{Value: v, Score: s})
		}
	}
	for ; next <= rows; next++ {
		col.Offsets[next] = int32(len(col.Values))
	}
	return nil
}

// scoredDicts recycles the decode-side scored-pair dictionaries (they
// live only for the duration of one stream decode).
var scoredDicts = sync.Pool{New: func() any { return new([]schema.ScoredValue) }}

func decodeScoreListDict(data []byte, rows int, col *ScoreListColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	dlen, err := r.u32()
	if err != nil {
		return err
	}
	if int64(dlen)*12 > int64(r.remaining()) {
		return io.ErrUnexpectedEOF
	}
	dp := scoredDicts.Get().(*[]schema.ScoredValue)
	defer scoredDicts.Put(dp)
	dict := (*dp)[:0]
	for i := uint32(0); i < dlen; i++ {
		v := int64(binary.LittleEndian.Uint64(data[r.pos:]))
		s := math.Float32frombits(binary.LittleEndian.Uint32(data[r.pos+8:]))
		r.pos += 12
		dict = append(dict, schema.ScoredValue{Value: v, Score: s})
	}
	*dp = dict
	w := dictIdxWidth(int(dlen))
	next := 0
	for i := uint32(0); i < count; i++ {
		_, n, err := sparseEntryHeader(&r, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if int64(n)*int64(w) > int64(r.remaining()) {
			return io.ErrUnexpectedEOF
		}
		for j := 0; j < n; j++ {
			idx, _ := r.idx(w)
			if idx >= dlen {
				return fmt.Errorf("dwrf: dict index %d outside dictionary of %d", idx, dlen)
			}
			col.Values = append(col.Values, dict[idx])
		}
	}
	for ; next <= rows; next++ {
		col.Offsets[next] = int32(len(col.Values))
	}
	return nil
}

// decodeLabels decodes a label stream into an arena-recycled slice
// (arena may be nil). The payload is one bounds check plus a bulk
// little-endian loop — labels are always plain.
func decodeLabels(data []byte, arena *Arena) ([]float32, error) {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(count)*4 > int64(r.remaining()) {
		return nil, io.ErrUnexpectedEOF
	}
	out := arena.Labels(int(count))
	src := data[r.pos:]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out, nil
}

func decodeRowData(data []byte) ([]*schema.Sample, error) {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Every sample costs at least 16 payload bytes (label + three section
	// counts); reject claimed counts the payload cannot hold before
	// allocating anything proportional to them.
	if int64(count)*16 > int64(r.remaining()) {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]*schema.Sample, count)
	for i := range out {
		s := schema.NewSample()
		if s.Label, err = r.f32(); err != nil {
			return nil, err
		}
		nd, err := r.u32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nd; j++ {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			v, err := r.f32()
			if err != nil {
				return nil, err
			}
			s.DenseFeatures[schema.FeatureID(id)] = v
		}
		ns, err := r.u32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < ns; j++ {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int64(n)*8 > int64(r.remaining()) {
				return nil, io.ErrUnexpectedEOF
			}
			vals := make([]int64, n)
			for k := range vals {
				if vals[k], err = r.i64(); err != nil {
					return nil, err
				}
			}
			s.SparseFeatures[schema.FeatureID(id)] = vals
		}
		nl, err := r.u32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nl; j++ {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int64(n)*12 > int64(r.remaining()) {
				return nil, io.ErrUnexpectedEOF
			}
			vals := make([]schema.ScoredValue, n)
			for k := range vals {
				v, err := r.i64()
				if err != nil {
					return nil, err
				}
				sc, err := r.f32()
				if err != nil {
					return nil, err
				}
				vals[k] = schema.ScoredValue{Value: v, Score: sc}
			}
			s.ScoreListFeatures[schema.FeatureID(id)] = vals
		}
		out[i] = s
	}
	return out, nil
}
