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
// reordering (FR), and large stripes (LS). A stripe read has one result
// for both layouts, the in-memory flatmap (FM) columnar batch: the
// regular-map layout reaches it by converting its decoded rows, the copy
// FM removes.
//
// # Stream encodings (format v3)
//
// Format v2 introduced a wire encoding per stream per stripe, chosen at
// flush time from the stripe's own value statistics (cardinality,
// presence runs, ID ordering); format v3 made the dictionary layout
// compact. The matrix:
//
//	Encoding  Streams            Chosen when                       Wire layout
//	--------  -----------------  --------------------------------  -------------------------------------------
//	plain     all                fallback (always legal); every    v1 layout, fixed-width little-endian
//	                             score-list stream
//	dict      sparse             few distinct values; dictionary   u32 entries, u32 dictLen, sorted dictionary:
//	                             + packed indices smaller than     zigzag-varint first value, then per key the
//	                             the other layouts                 uvarint (>= 1) of its difference from the
//	                                                               previous (wrapping uint64); then per row
//	                                                               entry: uvarint rows skipped since the
//	                                                               previous present row, uvarint n, n packed
//	                                                               indices (1 byte if dictLen<=256 else 2)
//	dict      score-list         never (decode only)               as sparse dict, each key followed by its raw
//	                                                               f32 score; keys are value-major, so a
//	                                                               difference may be 0
//	rle       dense              presence forms few runs; run      u32 count, u32 runs, runs x (u32 start,
//	                             list + value tail smaller than    u32 len), then count x f32 value tail
//	                             per-value (row,value) pairs
//	delta     sparse             every row's ID list is strictly   u32 entries, per entry: u32 row, u32 n,
//	                             ascending and varint deltas are   zigzag-varint first value, n-1 uvarint
//	                             smaller than plain                deltas (each >= 1)
//
// Size comparisons are exact (computed from the gathered column, not
// estimated), so the writer never picks an encoding that is larger than
// plain. Labels, row-data and score-list streams are always plain: no
// table the pipeline writes has a score-list column, so a score-list
// dictionary is read, from v2 and v3 files written before the writer
// stopped emitting it, but never written.
//
// Compatibility rules: v1 files carry no StreamMeta.Encoding field; gob
// decodes the absent field as zero, which IS EncPlain, so every v1 file
// reads under the current reader unchanged. v2 files wrote dictionary
// streams fixed-width (i64 keys, i64+f32 score-list keys, u32 row, u32 n
// entry headers); the reader picks that layout from the footer's Version,
// so v2 files read unchanged too, but the writer no longer emits it. Only
// the dictionary layout differs between v2 and v3. A writer with
// PlainEncodings set emits streams byte-identical to v1 (same payloads,
// same compression, same StripeMeta.ContentHash). Readers reject footers
// whose Version is newer than their own rather than misparse unknown
// encodings.
//
// The write path deflates each stream in one call with the package's own
// encoder (deflate.go), which writes exactly the bytes compress/flate's
// BestSpeed writer does, from state a stripe encoder keeps for its life:
// stripe encoders wait between flushes on a free list, so a garbage
// collection costs no rebuilt state.
//
// The batch decode path recycles everything on free lists (package
// freelist), which a garbage collection does not empty: stream staging
// buffers and payloads recycle through capacity-classed lists, each
// stream inflates in one call straight into a payload buffer of its
// recorded RawLength (inflate.go, with its Huffman tables in a recycled
// inflater), the per-stripe selection, I/O plan and payload list are a
// recycled stripeRead, and the column decoders stream values directly
// into Arena-recycled columns (Reader.ReadStripe). Dictionary-encoded
// sparse streams decode into dictionary-indexed columns (SparseColumn
// with a non-empty Dict) so downstream kernels can process each distinct
// value once. An arena-owned Batch hands every buffer back via Release
// once its consumer has copied the data out — see Arena for the
// ownership rules.
package dwrf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"dsi/internal/freelist"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// Magic identifies DWRF files.
const Magic = "DWRF"

// Version is the format version written by this package. Version 2
// added per-stream encodings (StreamMeta.Encoding); version 3 made
// dictionary streams compact (compactDictVersion). Version 1 files —
// plain encodings only — and version 2 files remain fully readable.
const Version = 3

// compactDictVersion is the first format version whose dictionary
// streams are compact: delta-coded keys and varint gap entry headers
// (writeDict). A v2 file's dictionary streams hold fixed-width keys and
// u32 row, u32 n entry headers, which the decoders still read.
const compactDictVersion = 3

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
	// sparse streams, and score-list streams of files written before
	// score lists became plain-only.
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
	// ENCODED bytes: re-encoding a stripe (v1 plain, v2 or v3 dictionary)
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

// counterBlock is one AES-CTR initial counter block.
type counterBlock [aes.BlockSize]byte

// cryptStreamTo applies AES-CTR from src into dst (dst and src may be
// the same slice for in-place operation), with the IV derived from the
// stream's absolute file offset so every stream is independently
// decryptable. Writing into a separate dst lets the reader decrypt
// straight out of a borrowed storage slice without a staging copy.
//
// iv is the caller's counter-block scratch, a field of a recycled
// working set (stripeRead, Writer): cipher.NewCTR takes the IV through
// an interface call, so a local array would escape to the heap on every
// stream. The CTR state NewCTR returns is the one allocation left per
// stream: crypto/cipher gives no way to reset one, and a keystream
// built from encBlock.Encrypt ran at 0.65 GB/s against NewCTR's 5.8 GB/s
// on 4 KB streams (one core of a 2-vCPU Xeon host).
func cryptStreamTo(dst, src []byte, fileOffset int64, iv *counterBlock) error {
	encBlockOnce.Do(func() {
		encBlock, encBlockErr = aes.NewCipher(encryptionKey)
	})
	if encBlockErr != nil {
		return fmt.Errorf("dwrf: cipher: %w", encBlockErr)
	}
	*iv = counterBlock{}
	binary.LittleEndian.PutUint64(iv[:], uint64(fileOffset))
	cipher.NewCTR(encBlock, iv[:]).XORKeyStream(dst, src)
	return nil
}

// decompress inflates one stream's decrypted bytes into a recycled payload
// buffer of exactly rawLen bytes, the StreamMeta.RawLength the writer
// recorded. A stream that is not valid DEFLATE, ends before its final
// block, or inflates to any other length is corrupt bytes: the error
// wraps tectonic.ErrCorrupt, so heal quarantines the replica that served
// it and refetches. Return the buffer to payloadPool once its values
// are parsed out.
func decompress(data []byte, rawLen int64) ([]byte, error) {
	if rawLen < 0 || rawLen > maxInflateRatio*int64(len(data)) {
		return nil, fmt.Errorf("dwrf: decompress: %w: %d bytes cannot inflate to %d", tectonic.ErrCorrupt, len(data), rawLen)
	}
	out := payloadPool.get(rawLen)
	n, err := inflate(out, data)
	if err == nil && n != len(out) {
		err = fmt.Errorf("inflates to %d bytes, %d recorded", n, rawLen)
	}
	if err != nil {
		payloadPool.put(out)
		return nil, fmt.Errorf("dwrf: decompress: %w: %v", tectonic.ErrCorrupt, err)
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
	if p.pos < len(p.data) && p.data[p.pos] < 0x80 { // most gaps, lengths and key differences fit a byte
		v := p.data[p.pos]
		p.pos++
		return uint64(v), nil
	}
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

// dictKey reads one compact dictionary key: the first as a zigzag
// varint, each later one as prev plus a uvarint difference. The sum wraps
// as uint64 arithmetic does, so MinInt64 to MaxInt64 is one difference,
// but a key below prev is corrupt, and so is one equal to it when strict
// (sparse keys ascend strictly; score-list keys are value-major).
func (p *payloadReader) dictKey(first bool, prev int64, strict bool) (int64, error) {
	if first {
		return p.varint()
	}
	d, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	k := prev + int64(d)
	if k < prev || strict && k == prev {
		return 0, fmt.Errorf("dwrf: dictionary key %d plus %d does not ascend", prev, d)
	}
	return k, nil
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
// with (deflate.go: a 128 KB match table, plus a token list and Huffman
// codes sized to the largest stream it has encoded), and its output
// accumulates in out (see compress). Encoders outlive the writers that
// use them: a flush borrows one per worker from stripeEncoders.
type stripeEncoder struct {
	pw   payloadWriter
	fl   deflater
	out  []byte   // compressed streams, back to back
	rows []uint32 // present-entry stripe-relative row indices
	lens []uint32 // per-entry list lengths (sparse)
	f32s []float32
	vals []int64
	ids  []schema.FeatureID // encodeRowData's sorted feature IDs
	dict dictBuilder
}

// stripeEncoders holds idle encoders: writers live for one partition,
// encoder state should not, and a flush after a collection finds the
// state it left. It holds at most as many encoders as concurrent flushes
// once took.
var stripeEncoders freelist.List[*stripeEncoder]

// compress deflates payload onto the end of e.out and returns the bytes
// it added: the bytes a fresh BestSpeed flate.Writer writes for it
// (deflate.go). The returned slice stays intact when later streams grow
// e.out (the encoder only appends); it is the next borrower's truncation
// of e.out that recycles it.
func (e *stripeEncoder) compress(payload []byte) []byte {
	start := len(e.out)
	e.out = e.fl.deflate(e.out, payload)
	return e.out[start:len(e.out):len(e.out)]
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

// dictEntry is one dictBuilder table slot: a sparse value and its code
// plus one (0 marks an empty slot).
type dictEntry struct {
	v    int64
	code uint32
}

// dictBuilder builds a stream's sorted dictionary and each value's index
// into it. An open-addressing table gives each distinct key a code in
// first-seen order; only the d distinct keys are then sorted, and each
// value's code is remapped through its key's rank. The dictionary and the
// indices are those of sorting every value and binary-searching each one,
// at a hash per value instead. A build stops as soon as more keys are
// distinct than the caller's limit: past it a dictionary cannot win.
type dictBuilder struct {
	slots []dictEntry // the table
	shift uint        // 64 - log2(len(slots))
	limit int
	keys  []int64  // distinct keys in first-seen order (a key's code is its index), then the sorted dictionary
	idx   []uint32 // per value: its key's code, then its dictionary index
	rank  []uint32 // per code: the key's dictionary index
}

// build builds the dictionary of vals. It reports false, leaving the
// builder unusable, once more than limit are distinct.
func (b *dictBuilder) build(vals []int64, limit int) bool {
	size := 16 // keeps the table at most half full
	for size < 2*min(len(vals), limit+1) {
		size <<= 1
	}
	b.slots = slices.Grow(b.slots[:0], size)[:size]
	clear(b.slots)
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	b.limit = limit
	b.keys = b.keys[:0]
	b.idx = b.idx[:0]
	for _, v := range vals {
		if !b.add(v) {
			return false
		}
	}
	// Each sorted key's code is one more probe.
	slices.Sort(b.keys)
	b.rank = slices.Grow(b.rank[:0], len(b.keys))[:len(b.keys)]
	for r, v := range b.keys {
		b.rank[b.probe(v).code-1] = uint32(r)
	}
	for i, c := range b.idx {
		b.idx[i] = b.rank[c]
	}
	return true
}

// probe returns the slot holding key v, or the empty slot where it would
// go.
func (b *dictBuilder) probe(v int64) *dictEntry {
	h := uint64(v) * 0x9e3779b97f4a7c15 // Fibonacci hashing: the top bits mix all of v
	mask := len(b.slots) - 1
	for i := int(h >> b.shift); ; i = (i + 1) & mask {
		if slot := &b.slots[i]; slot.code == 0 || slot.v == v {
			return slot
		}
	}
}

// add appends the code of key v to b.idx, giving the key the next code if
// it is new. It reports false instead if the key would be the limit+1st.
func (b *dictBuilder) add(v int64) bool {
	slot := b.probe(v)
	if slot.code == 0 {
		if len(b.keys) >= b.limit {
			return false
		}
		b.keys = append(b.keys, v)
		*slot = dictEntry{v: v, code: uint32(len(b.keys))}
	}
	b.idx = append(b.idx, slot.code-1)
	return true
}

// keyBytes is the size writeDict gives the built dictionary's keys: the
// first value as a zigzag varint, each later one as the uvarint of its
// difference from the one before.
func (b *dictBuilder) keyBytes() int {
	n := 0
	for i, k := range b.keys {
		if i == 0 {
			n += varintLen(k)
		} else {
			n += uvarintLen(uint64(k - b.keys[i-1]))
		}
	}
	return n
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
		if ascending {
			if deltaSize := 4 + 8*entries + deltaBody; deltaSize < bestSize {
				enc, bestSize = EncDelta, deltaSize
			}
		}
		// A dictionary of more than limit keys, each at least a byte, with
		// at least a byte per index, is no smaller than the best so far.
		hdr := e.gapHeaderBytes()
		limit := min(maxDictCard, bestSize-8-hdr-total)
		if e.dict.build(e.vals, limit) {
			d := len(e.dict.keys)
			if dictSize := 8 + e.dict.keyBytes() + hdr + dictIdxWidth(d)*total; dictSize < bestSize {
				enc = EncDict
			}
		}
	}

	switch enc {
	case EncDict:
		e.writeDict()
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

// gapHeaderBytes is the size of the gathered entries' dictionary entry
// headers: per present row, the uvarint count of rows skipped since the
// previous present row, then the uvarint list length.
func (e *stripeEncoder) gapHeaderBytes() int {
	n, next := 0, uint32(0)
	for k, row := range e.rows {
		n += uvarintLen(uint64(row-next)) + uvarintLen(uint64(e.lens[k]))
		next = row + 1
	}
	return n
}

// writeDict writes a dictionary stream from the built dictionary: the
// entry count and dictionary length, the sorted keys delta-coded, then per
// present row its gap header and the list's packed dictionary indices.
func (e *stripeEncoder) writeDict() {
	p := &e.pw
	keys := e.dict.keys
	p.u32(uint32(len(e.rows)))
	p.u32(uint32(len(keys)))
	for i, k := range keys {
		if i == 0 {
			p.varint(k)
		} else {
			p.uvarint(uint64(k - keys[i-1])) // wraps, so MinInt64 to MaxInt64 round-trips
		}
	}
	w := dictIdxWidth(len(keys))
	pos, next := 0, uint32(0)
	for k, row := range e.rows {
		n := int(e.lens[k])
		p.uvarint(uint64(row - next))
		p.uvarint(uint64(n))
		for _, i := range e.dict.idx[pos : pos+n] {
			p.idx(i, w)
		}
		pos += n
		next = row + 1
	}
}

// encodeScoreList encodes a score-list feature column in the plain v1
// layout: u32 entries, then per present row u32 row, u32 n and n
// (i64 value, f32 score) pairs.
func (e *stripeEncoder) encodeScoreList(rows []*schema.Sample, id schema.FeatureID) []byte {
	p := &e.pw
	p.reset()
	p.u32(0) // entries, filled in below
	entries := 0
	for i, r := range rows {
		vals, ok := r.ScoreListFeatures[id]
		if !ok {
			continue
		}
		entries++
		p.u32(uint32(i))
		p.u32(uint32(len(vals)))
		for _, v := range vals {
			p.i64(v.Value)
			p.f32(v.Score)
		}
	}
	binary.LittleEndian.PutUint32(p.buf, uint32(entries))
	return p.bytes()
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
// feature of every row, interleaved (always plain). Each row's features
// go in ascending ID order, so the same rows always encode to the same
// bytes.
func (e *stripeEncoder) encodeRowData(rows []*schema.Sample) []byte {
	p := &e.pw
	p.reset()
	p.u32(uint32(len(rows)))
	for _, r := range rows {
		p.f32(r.Label)
		e.ids = sortedIDs(e.ids, r.DenseFeatures)
		p.u32(uint32(len(e.ids)))
		for _, id := range e.ids {
			p.u32(uint32(id))
			p.f32(r.DenseFeatures[id])
		}
		e.ids = sortedIDs(e.ids, r.SparseFeatures)
		p.u32(uint32(len(e.ids)))
		for _, id := range e.ids {
			vals := r.SparseFeatures[id]
			p.u32(uint32(id))
			p.u32(uint32(len(vals)))
			for _, v := range vals {
				p.i64(v)
			}
		}
		e.ids = sortedIDs(e.ids, r.ScoreListFeatures)
		p.u32(uint32(len(e.ids)))
		for _, id := range e.ids {
			vals := r.ScoreListFeatures[id]
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

// sortedIDs refills ids with m's feature IDs in ascending order.
func sortedIDs[V any](ids []schema.FeatureID, m map[schema.FeatureID]V) []schema.FeatureID {
	ids = ids[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
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
// (col.Dict + index values); plain and delta streams materialize. version
// is the file's format version, which picks the dictionary layout.
func decodeSparseInto(data []byte, enc StreamEncoding, version, rows int, col *SparseColumn) error {
	switch enc {
	case EncPlain:
		return decodeSparsePlain(data, rows, col)
	case EncDict:
		return decodeSparseDict(data, version >= compactDictVersion, rows, col)
	case EncDelta:
		return decodeSparseDelta(data, rows, col)
	default:
		return fmt.Errorf("dwrf: %v encoding invalid for sparse stream", enc)
	}
}

// sparseEntryHeader reads and validates one entry header, filling offsets
// up to its row; next is the next row index whose offset is unwritten. A
// fixed header is u32 row, u32 n. A gap header (compact dictionaries) is
// the uvarint count of rows skipped since the previous present row, then
// uvarint n. The returned n is at most the bytes left, since every layout
// spends at least a byte per value.
func sparseEntryHeader(r *payloadReader, gaps bool, rows int, next *int, offsets []int32, filled int) (int, error) {
	var row, n uint64
	if gaps {
		gap, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if gap >= uint64(rows-*next) {
			return 0, fmt.Errorf("dwrf: sparse row gap %d past stripe of %d rows", gap, rows)
		}
		row = uint64(*next) + gap
		if n, err = r.uvarint(); err != nil {
			return 0, err
		}
	} else {
		row32, err := r.u32()
		if err != nil {
			return 0, err
		}
		n32, err := r.u32()
		if err != nil {
			return 0, err
		}
		if int(row32) >= rows || int(row32) < *next {
			return 0, fmt.Errorf("dwrf: sparse row %d out of order in stripe of %d rows", row32, rows)
		}
		row, n = uint64(row32), uint64(n32)
	}
	if n > uint64(r.remaining()) {
		return 0, io.ErrUnexpectedEOF
	}
	for ; *next <= int(row); *next++ {
		offsets[*next] = int32(filled)
	}
	return int(n), nil
}

func decodeSparsePlain(data []byte, rows int, col *SparseColumn) error {
	r := payloadReader{data: data}
	count, err := r.u32()
	if err != nil {
		return err
	}
	next := 0
	col.Values = slices.Grow(col.Values, max(0, r.remaining()-8*int(count))/8)
	for i := uint32(0); i < count; i++ {
		n, err := sparseEntryHeader(&r, false, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if n*8 > r.remaining() {
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

// dictHeader reads a dictionary stream's entry count and dictionary
// length, refusing a length the bytes left cannot hold at keyMin bytes a
// key, so no dictionary grows past what the payload can fill.
func dictHeader(r *payloadReader, keyMin int) (count, dlen uint32, err error) {
	if count, err = r.u32(); err != nil {
		return 0, 0, err
	}
	if dlen, err = r.u32(); err != nil {
		return 0, 0, err
	}
	if int64(dlen)*int64(keyMin) > int64(r.remaining()) {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return count, dlen, nil
}

// decodeSparseDict decodes a sparse dictionary stream, compact (format
// v3: delta-coded keys, gap entry headers) or fixed-width (format v2).
func decodeSparseDict(data []byte, compact bool, rows int, col *SparseColumn) error {
	r := payloadReader{data: data}
	keyMin, hdrMin := 8, 8
	if compact {
		keyMin, hdrMin = 1, 2
	}
	count, dlen, err := dictHeader(&r, keyMin)
	if err != nil {
		return err
	}
	col.Dict = slices.Grow(col.Dict[:0], int(dlen))
	var k int64
	for i := uint32(0); i < dlen; i++ {
		if compact {
			if k, err = r.dictKey(i == 0, k, true); err != nil {
				return err
			}
		} else {
			k = int64(binary.LittleEndian.Uint64(data[r.pos:]))
			r.pos += 8
		}
		col.Dict = append(col.Dict, k)
	}
	w := dictIdxWidth(int(dlen))
	// What follows the dictionary is count entry headers and the packed
	// indices: size Values for those once instead of growing it.
	col.Values = slices.Grow(col.Values, max(0, r.remaining()-hdrMin*int(count))/w)
	next := 0
	for i := uint32(0); i < count; i++ {
		n, err := sparseEntryHeader(&r, compact, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if n*w > r.remaining() {
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
		n, err := sparseEntryHeader(&r, false, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
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

// decodeScoreListInto is decodeSparseInto for score-list streams. The
// writer stores score lists plain; dictionary streams, from v2 and v3
// files written before it did, are materialized at decode time (the
// in-memory ScoreListColumn carries no dictionary).
func decodeScoreListInto(data []byte, enc StreamEncoding, version, rows int, col *ScoreListColumn) error {
	switch enc {
	case EncPlain:
		return decodeScoreListPlain(data, rows, col)
	case EncDict:
		return decodeScoreListDict(data, version >= compactDictVersion, rows, col)
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
		n, err := sparseEntryHeader(&r, false, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if n*12 > r.remaining() {
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
var scoredDicts freelist.List[[]schema.ScoredValue]

// decodeScoreListDict is decodeSparseDict for score-list streams, whose
// keys carry raw score bits after each value and, being value-major, may
// repeat a value.
func decodeScoreListDict(data []byte, compact bool, rows int, col *ScoreListColumn) error {
	r := payloadReader{data: data}
	keyMin := 12
	if compact {
		keyMin = 5
	}
	count, dlen, err := dictHeader(&r, keyMin)
	if err != nil {
		return err
	}
	dict, _ := scoredDicts.Get()
	dict = slices.Grow(dict[:0], int(dlen))
	defer scoredDicts.Put(dict) // the appends below stay within its capacity
	var v int64
	for i := uint32(0); i < dlen; i++ {
		if compact {
			v, err = r.dictKey(i == 0, v, false)
		} else {
			v, err = r.i64()
		}
		if err != nil {
			return err
		}
		s, err := r.f32()
		if err != nil {
			return err
		}
		dict = append(dict, schema.ScoredValue{Value: v, Score: s})
	}
	w := dictIdxWidth(int(dlen))
	next := 0
	for i := uint32(0); i < count; i++ {
		n, err := sparseEntryHeader(&r, compact, rows, &next, col.Offsets, len(col.Values))
		if err != nil {
			return err
		}
		if n*w > r.remaining() {
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
